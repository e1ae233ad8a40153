package main

// Example runs main and holds it to what it prints, the same bytes every run.
func Example() {
	main()
	// Output:
	// tenant sees: BM-Store Virtual NVMe Disk (serial BMS-VF000, firmware BMS_1.0), 256 GB
	// rand-r-128 through BM-Store: 652220 IOPS, 780.2 us avg latency
	// I/O monitor (out of band): ReadOps=36345 ReadBytes=1.4886912e+08
}
