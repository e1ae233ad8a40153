package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// traceDiffContext is how many model records trace-diff shows before the
// first difference, and after it on each side.
const traceDiffContext = 3

// runTraceDiff implements `bmsctl trace-diff <A> <B>`: the offline
// comparison of two -trace dumps by what the model did. It walks both dumps
// in step over the records a digest folds, skipping the kernel's dump-only
// records (`sim fire`, `spawn`, `resume` and `abort`, which say how the
// model was run), and compares a trace.Set's `=== rig` header by the rig's
// name alone, since its event count and digest follow from the records
// below it. It prints the first differing record with the records before it
// and the ones after it on each side; ok=false when one differs.
func runTraceDiff(args []string) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: bmsctl trace-diff <dump-A> <dump-B>")
	}
	var rd [2]*modelRecords
	for i, name := range args {
		f, err := os.Open(name)
		if err != nil {
			return false, err
		}
		defer f.Close()
		rd[i] = &modelRecords{name: name, sc: bufio.NewScanner(f)}
		rd[i].sc.Buffer(make([]byte, 64<<10), 1<<20)
	}
	var before []string // the last few records both dumps share
	for n := 1; ; n++ {
		a, aok := rd[0].next()
		b, bok := rd[1].next()
		for _, r := range rd {
			if err := r.sc.Err(); err != nil {
				return false, fmt.Errorf("%s: %v", r.name, err)
			}
		}
		if !aok && !bok {
			fmt.Printf("trace-diff: %d model records identical (%d and %d kernel records skipped)\n",
				n-1, rd[0].skipped, rd[1].skipped)
			return true, nil
		}
		if aok && bok && sameRecord(a, b) {
			if before = append(before, a); len(before) > traceDiffContext {
				before = before[1:]
			}
			continue
		}
		fmt.Printf("trace-diff: model record %d differs (%s line %d, %s line %d)\n",
			n, rd[0].name, rd[0].line, rd[1].name, rd[1].line)
		for _, l := range before {
			fmt.Printf("  %s\n", l)
		}
		for i, r := range rd {
			rec, ok := a, aok
			if i == 1 {
				rec, ok = b, bok
			}
			fmt.Printf("--- %s\n", r.name)
			if !ok {
				fmt.Println("> (end of dump)")
				continue
			}
			fmt.Printf("> %s\n", rec)
			for range traceDiffContext {
				if l, ok := r.next(); ok {
					fmt.Printf("  %s\n", l)
				}
			}
		}
		return false, nil
	}
}

// modelRecords reads a dump's lines, skipping the kernel's dump-only records.
type modelRecords struct {
	name    string
	sc      *bufio.Scanner
	line    int // the line number of the record next returned last
	skipped int // kernel records skipped so far
}

// next returns the next record that is not a kernel dump-only one.
func (r *modelRecords) next() (string, bool) {
	for r.sc.Scan() {
		r.line++
		l := r.sc.Text()
		if isKernelNote(l) {
			r.skipped++
			continue
		}
		return l, true
	}
	return "", false
}

// isKernelNote reports whether a dump line is one of the scheduler's
// records that trace.Tracer.Note writes to the dump and no digest folds.
func isKernelNote(l string) bool {
	f := strings.Fields(l)
	if len(f) < 3 || f[1] != "sim" {
		return false
	}
	switch f[2] {
	case "fire", "spawn", "resume", "abort":
		return true
	}
	return false
}

// sameRecord compares two model records; a rig header compares by name.
func sameRecord(a, b string) bool {
	const rig = "=== rig "
	if strings.HasPrefix(a, rig) && strings.HasPrefix(b, rig) {
		an, _, _ := strings.Cut(a, " (")
		bn, _, _ := strings.Cut(b, " (")
		return an == bn
	}
	return a == b
}
