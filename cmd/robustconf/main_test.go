package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"robustconf/internal/harness"
	"robustconf/internal/index/kinds"
)

// invoke runs the command in-process and returns its exit code and
// output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestDocCommandsParse parses every `robustconf <verb> …` line of the docs
// with its verb's flag set; it runs none of them.
func TestDocCommandsParse(t *testing.T) {
	var verbNames []string
	for n := range verbs {
		verbNames = append(verbNames, n)
	}
	cmd := regexp.MustCompile(`robustconf (` + strings.Join(verbNames, "|") + `)((?:[ \t]+[^\s` + "`" + `#&|;)]+)*)`)
	found := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		// A shell line continued with a backslash is one command.
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, m := range cmd.FindAllStringSubmatch(joined, -1) {
			found++
			o := &opts{}
			fs := o.flagSet(m[1], verbs[m[1]].flags)
			fs.SetOutput(&bytes.Buffer{})
			if err := fs.Parse(strings.Fields(m[2])); err != nil && !errors.Is(err, flag.ErrHelp) || fs.NArg() > 0 {
				t.Errorf("%s: %q does not parse: %v %q", doc, m[0], err, fs.Args())
			}
		}
	}
	t.Logf("%d command lines parsed", found)
	if found < 20 {
		t.Errorf("found %d robustconf command lines in the docs, want the usage block and more", found)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	values := map[string]string{
		"structure": "btree", "domain": "4", "burst": "2", "trace": "x", "format": "csv",
		"wal": "d", "fsync": "none", "checkpoint": "1s", "obs": "127.0.0.1:0", "obs-trace": "1",
		"signals": "true", "signals-every": "1s", "signals-stream": "x", "records": "10",
		"pipeline": "4", "tenant": "t",
	}
	var cases [][]string
	for _, n := range append([]string{"structure", "domain", "burst", "trace"}, append(walFlags, obsFlags...)...) {
		cases = append(cases, []string{"ycsb", "-addr", "127.0.0.1:1", "-" + n + "=" + values[n]})
	}
	for _, n := range []string{"pipeline", "tenant", "fsync", "checkpoint"} {
		cases = append(cases, []string{"ycsb", "-" + n + "=" + values[n]})
	}
	for _, n := range append(walFlags, obsFlags...) {
		cases = append(cases, []string{"tpcc", "-engine", "direct", "-" + n + "=" + values[n]})
	}
	for _, n := range append([]string{"records"}, obsFlags...) {
		cases = append(cases, []string{"plan", "-" + n + "=" + values[n]})
	}
	cases = append(cases, []string{"bench", "-format=csv"}, []string{"bench", "-list", "-format=csv"})
	for exp := range harness.Tables {
		cases = append(cases, []string{"bench", "-exp", exp, "-format=csv"})
	}
	for verb := range verbs {
		cases = append(cases, []string{verb, "-no-such-flag"}, []string{verb, "stray-argument"})
	}
	cases = append(cases, []string{"ycsb", "-structure", "skiplist"}, []string{"ycsb", "-clients", "0"},
		[]string{"serve", "-burst", "0"}, []string{"chaos", "-schedule", "nosuch"})
	for _, args := range cases {
		code, _, stderr := invoke(args...)
		if code != 2 || !strings.Contains(stderr, "Usage of robustconf "+args[0]) {
			t.Errorf("robustconf %s: exit %d, want 2 with usage; stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
		if name := strings.TrimLeft(strings.SplitN(args[len(args)-1], "=", 2)[0], "-"); values[name] != "" && !strings.Contains(stderr, "-"+name+" is ignored") {
			t.Errorf("robustconf %s: stderr does not name -%s:\n%s", strings.Join(args, " "), name, stderr)
		}
	}
	for _, args := range [][]string{nil, {"no-such-verb"}} {
		if code, _, stderr := invoke(args...); code != 2 || !strings.Contains(stderr, "verbs: bench, calib, chaos") {
			t.Errorf("robustconf %v: exit %d, want 2 with the verb list; stderr:\n%s", args, code, stderr)
		}
	}
}

// TestStructureTable checks that -structure takes every kind's name, and
// that -wal refuses the one structure its durable adapter cannot snapshot.
func TestStructureTable(t *testing.T) {
	for _, kind := range kinds.All {
		o := &opts{}
		fs := o.flagSet("ycsb", verbs["ycsb"].flags)
		if err := fs.Parse([]string{"-structure", kind.Flag()}); err != nil || o.structure != kind {
			t.Errorf("-structure %s parses to %v, %v", kind.Flag(), o.structure, err)
		}
	}
	code, _, stderr := invoke("ycsb", "-structure", "hashmap", "-wal", t.TempDir())
	if code != 2 || !strings.Contains(stderr, "-wal: the Hash Map cannot be made durable") {
		t.Errorf("ycsb -structure hashmap -wal: exit %d, stderr:\n%s", code, stderr)
	}
}

func TestSlotCapacity(t *testing.T) {
	_, domains := carve(10) // 48 CPUs: four domains of 10 and one of 8
	if len(domains) != 5 || domains[4].CPUs.Len() != 8 {
		t.Fatalf("carve(10) gave %d domains, last of %d CPUs", len(domains), domains[len(domains)-1].CPUs.Len())
	}
	if got := slotCapacity(domains); got != 8*15 {
		t.Errorf("slotCapacity = %d, want the smallest domain's 8×15", got)
	}
}

// TestRuns drives tiny in-process runs of the runtime verbs and checks the
// report lines (regular expressions, matched at a line's start).
func TestRuns(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args  []string
		lines []string
	}{
		{[]string{"ycsb", "-structure", "btree", "-records", "2000", "-ops", "300", "-clients", "2", "-domain", "1",
			"-trace", filepath.Join(dir, "ops")},
			[]string{"note: burst clamped to 7 ", "B-Tree / Read-Update 50/50: domains of 1 workers, 2 clients, burst 7, bypass reads false$",
				"throughput: [0-9]+ ops/s", "latency ns: n=600 ", "faults: panics=0"}},
		{[]string{"ycsb", "-structure", "fptree", "-records", "2000", "-ops", "300", "-clients", "2", "-domain", "8",
			"-wal", filepath.Join(dir, "wal"), "-fsync", "none"},
			[]string{"FP-Tree / Read-Update 50/50: domains of 8 workers, .* bypass reads true$", "wal: fsync=none committed=[1-9]"}},
		{[]string{"ycsb", "-structure", "btree", "-records", "2000", "-ops", "300", "-clients", "2", "-domain", "8",
			"-wal", filepath.Join(dir, "wal-btree"), "-fsync", "none"},
			[]string{"B-Tree / Read-Update 50/50: domains of 8 workers, .* bypass reads false$", "wal: fsync=none committed=[1-9]"}},
		{[]string{"tpcc", "-engine", "direct", "-warehouses", "1", "-customers", "30", "-items", "100", "-clients", "2", "-txns", "40"},
			[]string{"engine=direct structure=fptree warehouses=1 clients=2", "measured: 80 txns", "simulated reference machine"}},
		{[]string{"tpcc", "-engine", "delegated", "-structure", "bwtree", "-warehouses", "2", "-customers", "30", "-items", "100",
			"-clients", "2", "-txns", "40"},
			[]string{"engine=delegated structure=bwtree warehouses=2 clients=2", "measured: 80 txns", "faults: panics=0",
				"simulated reference machine"}},
		{[]string{"bench", "-exp", "fig1", "-format", "csv"}, []string{"# Figure 1: ", "workload,Opt. Configured,"}},
		// 26 workers is the fewest oltp2 composes onto; its shared domain
		// has one worker for five instances, so the burst must shrink.
		{[]string{"plan", "-workers", "26", "-run", "100", "-records", "1000"},
			[]string{`scenario oltp2 on 26 workers → isolated\+heterogeneous composition, 3 domains`,
				"note: burst clamped to 3 ", "run: 700 ops in", "faults: panics=0"}},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 0 {
			t.Errorf("robustconf %s: exit %d; stderr:\n%s", strings.Join(tc.args, " "), code, stderr)
			continue
		}
		for _, line := range tc.lines {
			if !regexp.MustCompile("(?m)^" + line).MatchString(stdout) {
				t.Errorf("robustconf %s: no line matching %q in:\n%s", strings.Join(tc.args, " "), line, stdout)
			}
		}
	}
}
