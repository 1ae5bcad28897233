// Command bench is the repository benchmark: five workloads against the
// shipped waldo-server and waldo-gateway binaries and the paper's own
// device and trainer paths, with per-layer numbers taken from outside
// the program. bench/README.md describes workloads, metrics and use;
// BENCHMARK.json at the repository root declares them to the driver.
//
//	go run ./bench -workload all -seed 42 -out run.json
//	go run ./bench -workload ingest_single -trace 1 -trace-out spans.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 14

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 42, "every generated input derives from this seed")
	seconds := fs.Float64("seconds", defaultSeconds, "run length: sizes each workload's fixed op list")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "write the full report (JSON) to this file")
	traceOut := fs.String("trace-out", "", "write the traced run's spans (JSON) to this file")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json[,a2.json...] b.json[,b2.json...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two arguments, each a comma-separated list of report files")
			return 2
		}
		worse, err := compareReports(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	selected := workloadNames
	if *workload != "all" {
		selected = nil
		for _, name := range workloadNames {
			if name == *workload {
				selected = []string{name}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	// Every exit path runs h.close, which kills and reaps the children
	// and removes all run state; SIGINT and SIGTERM take the same path.
	defer h.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()

	rep := &report{Schema: reportSchema, Env: envInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GitCommit: gitCommit(),
		Network: "loopback only: latencies are this sandbox's, not a link's",
	}}
	fmt.Fprintf(stdout, "waldo bench: nproc=%d %s commit=%s seed=%d seconds=%g trace=%d (%s)\n",
		rep.Env.NProc, rep.Env.GoVersion, rep.Env.GitCommit, *seed, *seconds, *trace, rep.Env.Network)

	var spans []span
	failed := false
	for _, name := range selected {
		var res *result
		var err error
		switch name {
		case wlScan:
			res, err = runScan(*seed, *seconds, *trace == 1, 1)
		case wlTrain:
			res, err = runTrain(*seed, *seconds, *trace == 1, 1)
		default:
			res, err = runNet(h, name, *seed, *seconds, *trace == 1)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n%s", name, err, h.stderrTails())
			return 1
		}
		printResult(stdout, res)
		if !res.correct() {
			failed = true
			fmt.Fprintf(stderr, "bench: %s: a correctness check failed or ops failed\n%s", name, h.stderrTails())
		}
		spans = append(spans, res.spans...)
		rep.Results = append(rep.Results, *res)
		fmt.Fprintln(stdout, driverLine(res))
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *traceOut != "" {
		data, err := json.Marshal(spans)
		if err == nil {
			err = os.WriteFile(*traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git work tree
// (the driver's checkout is not one).
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Never report the commit of some repository above the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
