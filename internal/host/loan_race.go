//go:build race

package host

// checkLoans: a race-detector build checksums a write payload when it is lent
// to a slot and verifies it when the slot gives it back.
const checkLoans = true
