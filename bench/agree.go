package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json -agree needs: the bounds.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreeFiles applies BENCHMARK.json's bounds to two results files, A the
// reference and B the candidate, one row per metric and workload:
//
//	identical / DIFFERS   exact (sim-domain) values and sim_fingerprint
//	unchanged             B's median is no worse than A's by more than the bound
//	better                B's median is better than A's by more than the bound
//	WORSE                 B's median is worse than A's by more than the bound
//	unresolved            the spread between a side's own runs is wider than
//	                      the bound, so the files cannot tell (needs -repeats)
//
// It returns 1 if any row DIFFERS or is WORSE, else 0.
func agreeFiles(pathA, pathB string) int {
	var bm benchmarkJSON
	if err := readJSON("BENCHMARK.json", &bm); err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		fatalf("%v", err)
	}
	if err := readJSON(pathB, &b); err != nil {
		fatalf("%v", err)
	}
	exact := map[string]bool{}
	for _, mi := range endToEnd {
		exact[mi.Name] = mi.Domain == domSim
	}
	bad := 0
	fmt.Printf("%-18s %-16s %14s %14s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range workloadCatalogue {
		ra, rb := untraced(a.Runs, w.Name), untraced(b.Runs, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-18s missing from one file\n", w.Name)
			bad++
			continue
		}
		verdict := "identical"
		if ra[0].Fingerprint != rb[0].Fingerprint {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Printf("%-18s %-16s %14.12s %14.12s %8s %8s  %s\n", w.Name, "sim_fingerprint", ra[0].Fingerprint, rb[0].Fingerprint, "", "exact", verdict)
		for _, mi := range bm.EndToEnd {
			va, vb := values(ra, mi.Name), values(rb, mi.Name)
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			worse := change
			if mi.Better == "higher" {
				worse = -change
			}
			bound := fmt.Sprintf("%.0f%%", mi.Bound*100)
			switch {
			case exact[mi.Name]:
				bound, verdict = "exact", "identical"
				if ma != mb {
					verdict = "DIFFERS"
					bad++
				}
			case spread(va) > mi.Bound || spread(vb) > mi.Bound:
				verdict = "unresolved"
			case worse > mi.Bound:
				verdict = "WORSE"
				bad++
			case worse < -mi.Bound:
				verdict = "better"
			default:
				verdict = "unchanged"
			}
			fmt.Printf("%-18s %-16s %14.4f %14.4f %+7.1f%% %8s  %s\n", w.Name, mi.Name, ma, mb, change*100, bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("bench: %d row(s) disagree\n", bad)
		return 1
	}
	fmt.Println("bench: the two files agree")
	return 0
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func untraced(runs []*runResult, workload string) (out []*runResult) {
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []*runResult, metric string) (v []float64) {
	for _, r := range runs {
		v = append(v, r.Metrics[metric].Value)
	}
	return v
}

// spread is how far a side's own runs lie apart, as a share of their
// median: the interquartile range from four runs on, the full range for two
// or three, and 0 for a single run, which shows no spread to judge by.
func spread(v []float64) float64 {
	switch {
	case len(v) < 2:
		return 0
	case len(v) < 4:
		return ratio(percentile(v, 1)-percentile(v, 0), median(v))
	}
	return ratio(percentile(v, 0.75)-percentile(v, 0.25), median(v))
}
