//go:build !race

package pagebuf

const Poisoned = false
