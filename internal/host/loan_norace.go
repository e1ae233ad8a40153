//go:build !race

package host

const checkLoans = false
