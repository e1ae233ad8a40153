package main

// Example runs main and holds it to what it prints, the same bytes every run.
func Example() {
	main()
	// Output:
	// before: firmware VDV10131, tenant ops so far: 6266
	// after:  firmware VDV10200
	//   total upgrade time : 1787 ms
	//   SSD reset window   : 1680 ms
	//   BM-Store processing: 90 ms (the paper's ~100 ms)
	//   tenant I/O pause   : 1770 ms (max completion gap 1770 ms)
	//   tenant ops=12740 errors=0  <- zero errors is the availability claim
	//
	// controller event log:
	//   [   0.242ms] created namespace "vol0" (262144 MB) on SSDs [0]
	//   [   0.424ms] bound "vol0" to function 0
	//   [ 500.859ms] hot-upgrade of SSD 0 to "VDV10200" starting (512 KB image)
	//   [2287.989ms] hot-upgrade of SSD 0 done: fw "VDV10200", total 1787 ms, I/O pause 1770 ms
}
