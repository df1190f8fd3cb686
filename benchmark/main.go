// Command benchmark is this repository's end-to-end benchmark: it builds
// cmd/trustnewsd, runs one of four frozen workloads against real daemon
// processes over loopback TCP, checks the daemons' outputs, and prints
// every metric by name with its unit. See README.md beside this file.
//
//	bash benchmark/run.sh --workload cluster_feed --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1
//	bash benchmark/run.sh --aa 3
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// killAllAndExit ends every daemon this process started — the cluster in
// use and any set-up in progress — and exits. Each daemon leads its own
// process group.
func killAllAndExit(code int) {
	for _, pid := range childDaemons() {
		_ = syscall.Kill(-pid, syscall.SIGKILL)
	}
	os.Exit(code)
}

// findRoot walks up from dir to the checkout root: the directory holding
// cmd/trustnewsd.
func findRoot(dir string) (string, error) {
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", daemonName)); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository root (no cmd/trustnewsd above the working directory)")
		}
		dir = parent
	}
}

// prepare builds the daemon once for this invocation. Build time is
// reported in the env block and is part of no metric.
func prepare(root string) (*benchEnv, error) {
	env := &benchEnv{root: root, buildDir: filepath.Join(root, ".bench_build"), workers: runtime.NumCPU()}
	env.bin = filepath.Join(env.buildDir, "bin", daemonName)
	for _, d := range []string{filepath.Join(env.buildDir, "bin"), filepath.Join(env.buildDir, "runs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", env.bin, "./cmd/"+daemonName)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/%s: %v\n%s", daemonName, err, out)
	}
	env.buildSeconds = time.Since(start).Seconds()
	return env, clearStrays(env.bin)
}

// envBlock describes the machine the numbers were taken on.
func envBlock(env *benchEnv) map[string]any {
	out := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"build_seconds": env.buildSeconds,
		"data_fs":       env.buildDir,
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		out["kernel"] = strings.TrimSpace(string(raw))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = env.root
	if raw, err := cmd.Output(); err == nil {
		out["git_commit"] = strings.TrimSpace(string(raw))
	} else {
		out["git_commit"] = "unknown (not a git checkout)"
	}
	return out
}

// printTable prints a run's metrics by name with unit, in catalog order.
func printTable(res *result, heading string, defs []metricDef) {
	fmt.Println(heading)
	for _, d := range defs {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Printf("  %-38s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// resultLine is the contract's last stdout line.
func resultLine(res *result, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = mv{v, d.unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	return string(raw), err
}

func run() error {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: spans, counters and in-process probes, per-layer metrics")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of N passes over every workload on the same binary")
	rootFlag := flag.String("root", "", "checkout root (default: found from the working directory)")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	root := *rootFlag
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		if root, err = findRoot(wd); err != nil {
			return err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	env, err := prepare(root)
	if err != nil {
		return err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "benchmark: interrupted; killing daemons")
		killAllAndExit(130)
	}()

	if *aa > 0 {
		return runAA(env, *aa, *seed, *seconds)
	}
	specs := workloads
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.name
			}
			sort.Strings(names)
			return fmt.Errorf("unknown workload %q (have %s, all)", *workload, strings.Join(names, ", "))
		}
		specs = []workloadSpec{spec}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if envJSON, err := json.Marshal(envBlock(env)); err == nil {
		fmt.Printf("env %s\n", envJSON)
	}
	for _, spec := range specs {
		res, err := runWorkload(env, spec, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		printTable(res, fmt.Sprintf("%s  (attempted %d, failed %d, ops %s)", res.workload, res.attempted, res.failed, res.opsHash[:12]), defs)
		if *trace == 0 {
			printTable(res, "  not repeatable within issue 12's bound, so kept per layer:", unresolved)
		}
		// The last line of standard output is the result of the (last) run.
		line, err := resultLine(res, defs)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		fmt.Println(line)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		killAllAndExit(1)
	}
}
