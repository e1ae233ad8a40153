package main

// Example runs main and holds it to what it prints, the same bytes every run.
func Example() {
	main()
	// Output:
	// fleet: 12 hosts, 4-host waves, seed 1, 1 SSD/host, fw commit 200-300ms, pause band [100, 700]ms
	//   host   0 wave  0 seed 1     : ok        | randwrite x2 + randrw x1 | ops 1904 errs 0 | p99 499.7us | pauses 388ms | fnv64w:07ed8d93dad4ba56
	//   host   1 wave  0 seed 2     : ok        | randread x2 + randrw x1 | ops 1903 errs 0 | p99 507.9us | pauses 356ms | fnv64w:4a27aba1be983b46
	//   host   2 wave  0 seed 3     : ok        | randread x1 + randrw x2 + randwrite x1 | ops 2858 errs 0 | p99 557.1us | pauses 347ms | fnv64w:13f6c4893f5122c6
	//   host   3 wave  0 seed 4     : ok        | randwrite x2 | ops 952 errs 0 | p99 499.7us | pauses 375ms | fnv64w:3d9b59d913c59a4d
	//   host   4 wave  1 seed 5     : ok        | randread x2 + randread x1 + randread x2 | ops 2858 errs 0 | p99 507.9us | pauses 309ms | fnv64w:8f4f17cea10f97f8
	//   host   5 wave  1 seed 6     : ok        | randwrite x1 | ops 950 errs 0 | p99 249.9us | pauses 377ms | fnv64w:aa97af2d26936427
	//   host   6 wave  1 seed 7     : ok        | randread x1 | ops 949 errs 0 | p99 258.0us | pauses 376ms | fnv64w:850d703307a22c38
	//   host   7 wave  1 seed 8     : ok        | randwrite x2 + randwrite x2 | ops 1906 errs 0 | p99 499.7us | pauses 348ms | fnv64w:16a9368e0701f4d9
	//   host   8 wave  2 seed 9     : ok        | randread x2 + randwrite x2 | ops 1905 errs 0 | p99 507.9us | pauses 380ms | fnv64w:aa564f1f24270204
	//   host   9 wave  2 seed 10    : ok        | randrw x2 + randrw x1 | ops 1903 errs 0 | p99 557.1us | pauses 300ms | fnv64w:b23ac5e6e9766e98
	//   host  10 wave  2 seed 11    : ok        | randread x2 + randwrite x1 + randrw x2 | ops 2860 errs 0 | p99 557.1us | pauses 313ms | fnv64w:d306c38389845106
	//   host  11 wave  2 seed 12    : ok        | randread x2 | ops 951 errs 0 | p99 507.9us | pauses 291ms | fnv64w:bfd47aa3e685f8fd
	// SLO: ops 21899, errs 0, p50 491.5us, p99 557.1us, p99.9 343932.9us (fleet-wide)
	// pauses: 12 upgrades, min 291ms median 356ms max 388ms
	// fleet digest: sha256:b1494941d9ac295e
	// verdict: PASS — rolling upgrade completed, zero-error guarantee held on all 12 hosts
	//
	// single-testbed tail forensics (via WithTimeline):
	// timelines: 1 rig(s), 250 sampled, 4 worst-K record(s), 2000 request(s) observed
	// tail attribution — worst-4 vs sampled population, by stage:
	//   stage      worst mean(us)    share sampled mean(us)
	//   submit              1.100     1.3%            1.100
	//   frontend            1.092     1.3%            1.092
	//   map+qos             0.300     0.4%            0.300
	//   backend            80.161    93.9%           74.737
	//   complete            0.592     0.7%            0.592
	//   reap                2.100     2.5%            2.100
	//   tail dominated by backend (93.9% of worst-K end-to-end time)
	//   waits (worst-K mean, us): host-q=0.000 qos=0.000 backend-q=0.000 die=0.000
	// sampled population: 250 record(s), mean e2e 79.921 us
}
