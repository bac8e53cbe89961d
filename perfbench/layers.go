package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"versaslot/internal/fabric"
	vsmetrics "versaslot/internal/metrics"
	"versaslot/internal/sim"
)

// layerTrace accumulates what the traced run measures at the layer
// boundaries the benchmark can reach from outside the program.
type layerTrace struct {
	scheduleCalls, scheduleNs int64 // sched: Policy.Schedule
	pickCalls, pickNs         int64 // cluster: Dispatcher.Pick
	pendingPeak               int   // sim: largest kernel queue seen

	// Go runtime deltas over the traced repetitions.
	allocBytes, allocs float64
	gcCPU, totalCPU    float64
}

// runtimeSample reads the runtime counters the traced run reports.
type runtimeSample struct{ allocBytes, allocs, gcCPU, totalCPU float64 }

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3)}
}

func (t *layerTrace) addRuntime(from, to runtimeSample) {
	t.allocBytes += to.allocBytes - from.allocBytes
	t.allocs += to.allocs - from.allocs
	t.gcCPU += to.gcCPU - from.gcCPU
	t.totalCPU += to.totalCPU - from.totalCPU
}

// stepNs times a Schedule+Step loop on a fresh kernel holding depth
// pending events: each step fires one event, which schedules the next,
// so the queue depth stays fixed.
func stepNs(depth int, seed uint64) float64 {
	if depth < 1 {
		depth = 1
	}
	k := sim.NewKernel(seed)
	r := sim.NewRNG(seed)
	var fire func()
	fire = func() { k.Schedule(sim.Duration(1+r.Intn(int(sim.Second))), fire) }
	for i := 0; i < depth; i++ {
		k.Schedule(sim.Duration(1+r.Intn(int(sim.Second))), fire)
	}
	const steps = 1 << 20
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		k.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / steps
}

// replayMetrics feeds one repetition's response samples, run by run,
// into fresh collectors in the workload's metrics mode, timing
// RecordResponse per sample and Summarize per repetition.
func replayMetrics(runs [][]vsmetrics.ResponseSample, stream bool) (observeNs, summarizeS float64) {
	var observe, summarize time.Duration
	n := 0
	for _, samples := range runs {
		c := vsmetrics.NewCollector(fabric.ResVec{})
		if stream {
			c.EnableStreaming(vsmetrics.StreamConfig{})
		}
		t0 := time.Now()
		for _, s := range samples {
			c.RecordResponse(s)
		}
		observe += time.Since(t0)
		n += len(samples)
		t1 := time.Now()
		c.Summarize()
		summarize += time.Since(t1)
	}
	if n > 0 {
		observeNs = float64(observe.Nanoseconds()) / float64(n)
	}
	return observeNs, summarize.Seconds()
}

// cpuShareLayers are the packages whose sampled self time the traced
// run reports; everything in the Go runtime counts as "runtime".
var cpuShareLayers = []string{"sim", "sched", "appmodel", "cluster", "metrics", "orchestrator", "runtime"}

// layerOf maps a profiled function name to its reporting layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "versaslot/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		return pkg
	}
	if strings.HasPrefix(fn, "versaslot.") {
		return "facade"
	}
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	// Assembly stubs such as aeshashbody and gcWriteBarrier carry no
	// package prefix; they belong to the runtime.
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, ".") {
		return "runtime"
	}
	// Any other package: its import path, cut before the first dot of
	// the last element.
	slash := strings.LastIndex(fn, "/") + 1
	if dot := strings.Index(fn[slash:], "."); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// cpuShares groups a CPU profile's sampled self time by layer. It
// decodes the gzip-compressed profile.proto that runtime/pprof writes:
// only the fields needed to find each sample's leaf function.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, pb)
				case 2:
					for _, x := range appendVarints(nil, w, v, pb) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds]
			// values; weight by the last, the nanoseconds.
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], value: vals[len(vals)-1]})
			}
		case 4: // location
			var id, fn uint64
			if err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: the first entry is the innermost inlined function
					if fn == 0 {
						return eachField(lb, func(ln, _ int, lv uint64, _ []byte) error {
							if ln == 1 {
								fn = lv
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if idx := fnName[locFn[s.loc]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[layerOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, len(samples), nil
}

// appendVarints decodes a repeated varint field in either packed or
// unpacked encoding.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
