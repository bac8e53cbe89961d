package main

import (
	"bufio"
	"container/heap"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp identifies the machine a report came from, so numbers from
// different hosts or noisy periods are never compared blindly.
type hostStamp struct {
	NProc      int
	GOMAXPROCS int
	CPUModel   string
	GoVersion  string
}

func stampHost() hostStamp {
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: the steal column
// and the sum of every column, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		// guest and guest_nice (columns 9 and 10) are already counted
		// in user and nice.
		if i >= 8 {
			break
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of all CPU ticks the hypervisor stole between
// two readings; -1 when /proc/stat is unreadable.
func stealShare(from, to cpuTicks, ok bool) float64 {
	if !ok || to.total <= from.total {
		return -1
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calRef is the calibration loop's wall time on an undisturbed run of
// the 2-vCPU host the benchmark was sized on.
const calRef = 50 * time.Millisecond

type calItem struct{ at, seq int64 }

// calHeap is a binary min-heap ordered like the simulator's event queue.
type calHeap []*calItem

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calItem)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calSink keeps the calibration loop's result alive.
var calSink int

// calibrate times a fixed workload built only from the standard
// library, so no change to the simulator moves it: event-queue-like heap
// churn with small allocations and map updates, much like the
// simulator's own mix. On a shared host the neighbours' load slows it
// and the simulator alike, so scaling host times by it removes most of
// that drift from the throughput metrics.
func calibrate() (wall, cpu time.Duration) {
	t0, c0 := time.Now(), processCPU()
	x := uint64(88172645463325252) // xorshift64 state
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x >> 40)
	}
	h := make(calHeap, 0, 1024)
	m := make(map[int64]int64, 2048)
	var seq int64
	for i := 0; i < 1024; i++ {
		seq++
		heap.Push(&h, &calItem{at: next(), seq: seq})
	}
	for i := 0; i < 150000; i++ {
		it := heap.Pop(&h).(*calItem)
		k := it.at & 4095
		m[k] += it.seq
		if len(m) > 2000 {
			delete(m, k^1)
		}
		seq++
		heap.Push(&h, &calItem{at: it.at + next()&1023, seq: seq})
	}
	calSink += len(m)
	return time.Since(t0), processCPU() - c0
}
