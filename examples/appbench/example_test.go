package main

// Example runs main and holds it to what it prints, the same bytes every run.
func Example() {
	main()
	// Output:
	// TPC-C  : 432120 tpmC (8132 txns: 3601 NO / 3552 P / 334 OS / 345 D / 300 SL), p99 2.56 ms
	// Sysbench: 414720 QPS, 20736 TPS, avg 0.77 ms
	// YCSB-A  : 352634 ops/s, p99 96 us (flushes=2 compactions=0)
	// YCSB-B  : 2370408 ops/s, p99 92 us (flushes=2 compactions=0)
	// YCSB-C  : 7951910 ops/s, p99 88 us (flushes=2 compactions=0)
	// monitor fn0: reads=66 writes=22641
	// monitor fn1: reads=69547 writes=37061
}
