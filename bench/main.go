// Command bench is the repository benchmark. It measures the simulator
// the way its users drive it — harness.Executor.RunSystems over
// (system × kernel) cells — on four workloads, checks every pass's
// output against the goldens, recorded digests and the cold results,
// and prints each end-to-end metric with its unit. A traced run drives
// the same cells through each layer's public calls, with a span around
// every call, and prints the per-layer metrics. README.md documents the
// workloads, metrics and flags.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                          # every workload, each in a child process
//	bash bench/run.sh -workload dse-warm -seed 2
//	bash bench/run.sh -workload fig5-cold -trace 1
//	bash bench/run.sh -compare old/results.json new/results.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload of -workloads, each in a child process)")
	workloads := flag.String("workloads", "fig5-cold,dse-cold,dse-warm,dse-incremental", "comma-separated workloads to run when -workload is empty")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the sampled design points")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed passes of one workload run")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced and observed passes and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for results, traces and result stores (default <repo>/.bench_out)")
	flag.BoolVar(&o.short, "short", false, "tiny passes, for tests")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments: -compare old.json new.json")
	flag.Parse()

	debug.SetGCPercent(gogc)
	root, err := repoRoot()
	if err != nil {
		log.Fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two results.json files")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), filepath.Join(root, "BENCHMARK.json")))
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		log.Fatalf("-trace %d: want 0 or 1", traceFlag)
	}
	if o.seconds <= 0 {
		log.Fatalf("-seconds %g: want a positive duration", o.seconds)
	}
	o.trace = traceFlag == 1
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_out")
	}

	if o.workload == "" {
		if err := runAll(o, splitList(*workloads)); err != nil {
			log.Fatal(err)
		}
		return
	}
	r, err := runWorkload(o)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.report(os.Stdout, o.trace); err != nil {
		log.Fatal(err)
	}
	if !r.Correct {
		os.Exit(1)
	}
}

// runAll runs each workload in its own child process, one at a time, so
// that no workload inherits another's heap and max_rss_mb is the
// workload's own. It gathers the results in <out>/results.json.
func runAll(o options, names []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Env: currentEnv(), Seed: o.seed, Seconds: o.seconds, Short: o.short, Workloads: map[string]*runResult{}}
	rec.Env.Commit = commit()
	var failed []string
	for _, name := range names {
		if _, err := lookupWorkload(name); err != nil {
			return err
		}
		resultPath := filepath.Join(o.out, name, "result.json")
		if err := os.Remove(resultPath); err != nil && !os.IsNotExist(err) {
			return err
		}
		args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out,
			"-trace", map[bool]string{false: "0", true: "1"}[o.trace]}
		if o.short {
			args = append(args, "-short")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", name, err))
		}
		if r, err := readResult(resultPath); err == nil {
			rec.Workloads[name] = r
		}
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), rec); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", filepath.Join(o.out, "results.json"))
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}

// commit names the checked-out commit, when the repository is a git
// work tree.
func commit() string {
	root, err := repoRoot()
	if err != nil {
		return ""
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runCompare prints the comparison of two records and returns the exit
// code: 1 when any row is worse.
func runCompare(oldPath, newPath, benchmarkPath string) int {
	bounds, err := readBounds(benchmarkPath)
	if err != nil {
		log.Fatal(err)
	}
	old, err := readRecord(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := readRecord(newPath)
	if err != nil {
		log.Fatal(err)
	}
	// Passes of different length or size are not the same measurement.
	if old.Seconds != cur.Seconds || old.Short != cur.Short {
		log.Fatalf("%s ran %gs passes (short %v), %s %gs (short %v): compare runs of one length",
			oldPath, old.Seconds, old.Short, newPath, cur.Seconds, cur.Short)
	}
	if printRows(os.Stdout, compareRecords(old, cur, bounds)) {
		return 1
	}
	return 0
}
