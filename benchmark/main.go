// Command benchmark is the repository's benchmark: six closed-loop
// workloads, four end-to-end metrics each, and a per-layer ledger taken
// from spans the benchmark itself records around the calls into each layer.
// README.md defines every workload and metric; run.sh is the entry point.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Uint64("seed", 1, "seed of every key stream and TPC-C terminal")
	seconds := flag.Float64("seconds", 12, "length of the measured phase (five intervals)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/out", "directory for result and trace files")
	scratch := flag.String("scratch", ".bench_build/scratch", "directory for write-ahead logs (put it on a disk, not tmpfs)")
	commit := flag.String("commit", "unknown", "git commit recorded in the result header")
	doCompare := flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	mergeTo := flag.String("merge", "", "merge the result files given as arguments into this file and print the table")
	allProbes := flag.Bool("probes", false, "run the full index probe table (four structures × 4 096 and 8 000 000 keys)")
	flag.Parse()

	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		parent, err := readResultSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		change, err := readResultSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if bad := compare(os.Stdout, parent, change); bad > 0 {
			fmt.Printf("%d pair(s) regressed or unresolved\n", bad)
			os.Exit(1)
		}
	case *mergeTo != "":
		set, err := merge(flag.Args())
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(*mergeTo, set); err != nil {
			fatal(err)
		}
		set.printTable(os.Stdout)
	case *allProbes:
		runIndexProbes()
	default:
		if err := runWorkload(*name, *seed, *seconds, *trace == 1, *out, *scratch, *commit); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload measures one workload in this process and prints its report,
// ending with the one-line JSON object. Ops that failed make the exit code
// non-zero after the report is out.
func runWorkload(name string, seed uint64, seconds float64, traced bool, out, scratch, commit string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, scratch)
	if err != nil {
		return err
	}
	r := result{Header: hostHeader(commit, scratch), Workload: name, Shape: w.describe(), Seed: seed, Seconds: seconds, Trace: traced}
	file := "result-" + name + ".json"
	if traced {
		t, err := measureTraced(name, w, seed, seconds, scratch, out)
		if err != nil {
			return err
		}
		r.PerLayer, r.Ledger, r.Budget = t.perLayer, t.ledger, &t.budget
		r.Attempted, r.Failed, r.Samples = t.attempted, t.failed, t.samples
		file = "layers-" + name + ".json"
	} else {
		e, err := measureEndToEnd(w, seed, seconds)
		if err != nil {
			return err
		}
		r.EndToEnd = e.estimates()
		r.Attempted, r.Failed = e.attempted()
		r.Samples = e.samples()
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	if err := writeJSON(filepath.Join(out, file), r); err != nil {
		return err
	}
	r.print(os.Stdout)
	fmt.Println(r.lastLine())
	if !r.Correct {
		os.Exit(1)
	}
	return nil
}

// runIndexProbes is the full index table of the ledger: every structure at
// both sizes. It takes about a minute and so is not part of a workload run,
// which probes only the structure and size it uses.
func runIndexProbes() {
	for _, records := range []uint64{4096, largeRecords} {
		for _, b := range indexBuilders {
			idx := b.build(records)
			loadIndex(idx, records)
			get, batch := probeIndex(idx, records, 0)
			fmt.Printf("index.%s.%s.get_ns %.1f ns\n", b.name, sizeTag(records), get)
			fmt.Printf("index.%s.%s.batch_ns_per_op %.1f ns/op\n", b.name, sizeTag(records), batch)
		}
	}
}
