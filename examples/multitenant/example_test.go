package main

// Example runs main and holds it to what it prints, the same bytes every run.
func Example() {
	main()
	// Output:
	// per-tenant 4K random read on 4 shared SSDs:
	//   tenant0 (capped@20K):   20000 IOPS, p99 6374.5 us
	//   tenant1 (capped@20K):   20000 IOPS, p99 6374.4 us
	//   tenant2 (standard  ):  155210 IOPS, p99  819.2 us
	//   tenant3 (standard  ):  155090 IOPS, p99  819.2 us
	//   tenant4 (standard  ):  155070 IOPS, p99  819.2 us
	//   tenant5 (standard  ):  155150 IOPS, p99  819.2 us
	//   tenant6 (standard  ):  155000 IOPS, p99  819.2 us
	//   tenant7 (standard  ):  154680 IOPS, p99  819.2 us
	//
	// fairness among uncapped tenants: max/min = 1.00
	// capped tenants sit at their QoS threshold; the rest share the remainder evenly.
}
