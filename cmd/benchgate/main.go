// Command benchgate is the bench-regression gate: it runs the
// simulation-substrate micro-benchmarks plus the end-to-end stress,
// chaos-fault, farm-dispatch, streaming-metrics and autoscale-churn
// benchmarks, writes
// the measured ns/op, B/op and allocs/op to a JSON report, and (given
// a committed baseline) fails when a benchmark regresses past the
// tolerance.
//
// Write the committed baseline after an intentional performance change:
//
//	go run ./cmd/benchgate -write -out BENCH_9.json
//
// Gate a change against it (what CI runs):
//
//	go run ./cmd/benchgate -baseline BENCH_9.json -out /tmp/bench.json
//
// Allocation counts and heap bytes are machine-independent and gated
// tightly (25% and 50% + rounding slack — a zero baseline admits
// exactly zero). The B/op gate is what pins the streaming metrics
// pipeline's bounded-memory claim: BenchmarkStreamingHorizon allocates
// the same few hundred KiB whether it folds 100k or 1M samples, and a
// return to per-sample retention fails the gate at the million-sample
// size. Raw ns/op varies across hosts, so its default tolerance is
// deliberately loose (4x) — the gate catches order-of-magnitude
// regressions like an accidental return to per-event heap allocation,
// not 10% jitter.
//
// On multi-core hosts the gate additionally requires the sharded farm
// runs to beat their width-1 twins, which already run per-pair kernels
// (so the floors measure parallel speed-up alone): 4 shards at
// pairs=128 by the
// -shard-speedup factor (hosts with at least 4 CPUs), and 8 shards at
// pairs=1024 by the -shard-speedup-wide factor (hosts with at least
// 8 CPUs — below that the floors are skipped with a note). These are
// baseline-free properties of the measured run itself, so a change
// that quietly serializes the sharded executor fails CI even if
// absolute timings stay within tolerance.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one benchmark's measured result.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the JSON artifact benchgate reads and writes.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	Benchmarks []Bench `json:"benchmarks"`
}

const schema = "versaslot-bench/v1"

// suites are the gated benchmark runs: the substrate micro-benches and
// end-to-end stress get real benchtime for stable numbers; the farm
// dispatch benches pin the least-loaded configuration at 32 and 128
// pairs, once on the homogeneous ZCU216 farm and once on the
// mixed-platform (ZCU216/U250/PYNQ) farm that exercises capacity-aware
// dispatch; the sharded benches pin the parallel executor against its
// width-1 twin at fleet scale (128 and 1,024 pairs); the chaos
// bench pins the fault-injection path (fail/recover chains,
// crash-restart teardown, PR retries) against its fault-free twin; the
// autoscale-churn bench pins the fleet control plane (tenant
// admission, quota pump, scale-up/drain cycles).
var suites = []struct {
	bench     string
	benchtime string
}{
	{`^(BenchmarkKernelEvents|BenchmarkServerJobs|BenchmarkPipelineMakespan|BenchmarkWorkloadGeneration)$`, "0.5s"},
	{`^BenchmarkEndToEndStress$`, "2x"},
	{`^BenchmarkChaosFaults$`, "2x"},
	{`^BenchmarkFarmDispatch$/^least-loaded$/^pairs=(32|128)$`, "2x"},
	{`^BenchmarkFarmDispatchHetero$/^least-loaded$/^pairs=32$`, "2x"},
	{`^BenchmarkFarmDispatchSharded$`, "2x"},
	{`^BenchmarkStreamingHorizon$`, "2x"},
	{`^BenchmarkAutoscaleChurn$`, "4x"},
}

// shardFloor is one sharded-speedup floor: the named parallel bench
// must beat its width-1 twin by factor on hosts with at least
// minCPU CPUs; below that a parallel win is impossible and the check
// is skipped with a note.
type shardFloor struct {
	seq, par string
	minCPU   int
	factor   float64
}

func main() {
	var (
		out         = flag.String("out", "BENCH_9.json", "path to write the measured report")
		baseline    = flag.String("baseline", "", "committed baseline to gate against (empty: no gate)")
		write       = flag.Bool("write", false, "only write the report (alias for -baseline '')")
		nsTol       = flag.Float64("ns-tolerance", 4.0, "fail when ns/op exceeds baseline by this factor")
		allocTol    = flag.Float64("allocs-tolerance", 1.25, "fail when allocs/op exceeds baseline by this factor (plus rounding slack)")
		bytesTol    = flag.Float64("bytes-tolerance", 1.5, "fail when B/op exceeds baseline by this factor (plus rounding slack)")
		speedup     = flag.Float64("shard-speedup", 2.0, "fail when the 4-shard pairs=128 farm run is not this much faster than width 1 (skipped below 4 CPUs)")
		speedupWide = flag.Float64("shard-speedup-wide", 3.0, "fail when the 8-shard pairs=1024 farm run is not this much faster than width 1 (skipped below 8 CPUs)")
		pkg         = flag.String("pkg", ".", "package holding the benchmarks")
	)
	flag.Parse()

	var results []Bench
	for _, s := range suites {
		bs, err := runSuite(*pkg, s.bench, s.benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		results = append(results, bs...)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results parsed")
		os.Exit(1)
	}
	report := Report{Schema: schema, GoVersion: runtime.Version(), Benchmarks: results}
	if err := writeReport(*out, report); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: wrote %d benchmark results to %s\n", len(results), *out)

	floors := []shardFloor{
		{seq: "FarmDispatchSharded/pairs=128/shards=1", par: "FarmDispatchSharded/pairs=128/shards=4", minCPU: 4, factor: *speedup},
		{seq: "FarmDispatchSharded/pairs=1024/shards=1", par: "FarmDispatchSharded/pairs=1024/shards=8", minCPU: 8, factor: *speedupWide},
	}
	if failures := checkShardSpeedup(report, floors); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: %s\n", f)
		}
		os.Exit(1)
	}

	if *write || *baseline == "" {
		return
	}
	base, err := readReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(1)
	}
	if failures := gate(base, report, *nsTol, *allocTol, *bytesTol); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: REGRESSION %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within tolerance of %s\n", len(results), *baseline)
}

// checkShardSpeedup enforces the sharded executor's speedup floors on
// multi-core hosts: each measured parallel farm run must beat its
// width-1 twin by the floor's factor. On hosts below a floor's CPU
// requirement a parallel win is impossible, so that floor is skipped
// with a note. Unlike the baseline gate this is a property of the
// measured run alone, and it applies in -write mode too: a baseline
// must never be published with a serialized sharded executor.
func checkShardSpeedup(r Report, floors []shardFloor) []string {
	by := make(map[string]Bench, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		by[b.Name] = b
	}
	var failures []string
	cpus := runtime.NumCPU()
	for _, fl := range floors {
		if fl.factor <= 0 {
			continue
		}
		if cpus < fl.minCPU {
			fmt.Printf("benchgate: %d CPU(s), skipping the x%.1f speedup floor on %s (needs %d)\n",
				cpus, fl.factor, fl.par, fl.minCPU)
			continue
		}
		seq, okSeq := by[fl.seq]
		par, okPar := by[fl.par]
		if !okSeq || !okPar {
			failures = append(failures, fmt.Sprintf("speedup check: %s or %s missing from the measured report", fl.seq, fl.par))
			continue
		}
		if got := seq.NsPerOp / par.NsPerOp; got < fl.factor {
			failures = append(failures, fmt.Sprintf("SPEEDUP %s: x%.2f over width 1, below the x%.1f floor", fl.par, got, fl.factor))
		}
	}
	return failures
}

// runSuite executes one `go test -bench` invocation and parses its
// output.
func runSuite(pkg, bench, benchtime string) ([]Bench, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", benchtime, pkg}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.String())
	}
	return parseBenchOutput(&buf)
}

// parseBenchOutput extracts Bench entries from `go test -bench` text.
func parseBenchOutput(r *bytes.Buffer) ([]Bench, error) {
	var out []Bench
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the trailing -GOMAXPROCS suffix.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Bench{Name: strings.TrimPrefix(name, "Benchmark")}
		// Remaining fields come in (value, unit) pairs after the
		// iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if b.NsPerOp > 0 {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// gate compares measured results against the baseline and returns one
// message per regression. Benchmarks missing from either side fail the
// gate: a silently dropped benchmark must not pass.
func gate(base, got Report, nsTol, allocTol, bytesTol float64) []string {
	var failures []string
	baseBy := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	seen := make(map[string]bool)
	for _, g := range got.Benchmarks {
		b, ok := baseBy[g.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in baseline (add it with -write)", g.Name))
			continue
		}
		seen[g.Name] = true
		if limit := b.NsPerOp * nsTol; g.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op exceeds baseline %.1f ns/op x%.1f tolerance",
				g.Name, g.NsPerOp, b.NsPerOp, nsTol))
		}
		// Rounding slack of 0.5 makes a zero-alloc baseline admit
		// exactly zero allocs while integer baselines tolerate the
		// percentage headroom.
		if limit := b.AllocsPerOp*allocTol + 0.5; g.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op exceeds baseline %.1f allocs/op x%.2f tolerance",
				g.Name, g.AllocsPerOp, b.AllocsPerOp, allocTol))
		}
		// Heap bytes are machine-independent like allocation counts, so
		// they gate tightly too — this is what keeps the streaming
		// pipeline's O(1)-memory claim honest: a change that silently
		// reverts to per-sample retention blows the B/op budget at the
		// million-sample horizon long before ns/op notices.
		if limit := b.BytesPerOp*bytesTol + 0.5; g.BytesPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f B/op exceeds baseline %.0f B/op x%.2f tolerance",
				g.Name, g.BytesPerOp, b.BytesPerOp, bytesTol))
		}
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", b.Name))
		}
	}
	return failures
}

func writeReport(path string, r Report) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return Report{}, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return r, nil
}
