//go:build race

package pagebuf

// Poisoned: a race-detector build fills every buffer given back to a List
// with Poison.
const Poisoned = true
