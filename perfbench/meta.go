package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostMetadata describes the host and the code under test, so records
// from different machines or commits are never compared blindly.
func hostMetadata() map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["commit_modified"] = s.Value == "true"
			}
		}
	}
	// A checkout without git history still identifies its code by content.
	if sum, err := sourceDigest(); err == nil {
		m["source_sha256"] = sum
	} else {
		m["source_sha256"] = "unknown: " + err.Error()
	}
	return m
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// sourceDigest hashes go.mod and every .go file of the module under test
// (the repository root, found from the working directory), excluding the
// benchmark's own directory and build output.
func sourceDigest() (string, error) {
	root := ""
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			root = dir
			break
		}
	}
	if root == "" {
		return "", fmt.Errorf("module root not found")
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == filepath.Join(root, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// totalAlloc returns the bytes allocated so far (runtime.MemStats.TotalAlloc).
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// median returns the middle value (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencyMetrics reports request latency: the p50 and p99 of each group of
// requests, medians over the groups. A group is a window slice of at
// least 1000 requests, so that at least ten lie beyond its p99, or the
// whole window when it holds fewer. The sample counts go in the record.
func latencyMetrics(rep *report, groups [][]time.Duration) {
	var p50s, p99s []float64
	n, beyond := 0, -1
	for _, g := range groups {
		p50s = append(p50s, ms(quantile(g, 0.50)))
		p99s = append(p99s, ms(quantile(g, 0.99)))
		n += len(g)
		if b := len(g) - int(math.Ceil(0.99*float64(len(g)))); beyond < 0 || b < beyond {
			beyond = b
		}
	}
	p50, p99 := median(p50s), median(p99s)
	rep.set("req_p50_ms", p50, "ms")
	rep.set("req_p99_ms", p99, "ms")
	rep.record["latency_samples"] = n
	rep.record["latency_groups"] = len(groups)
	rep.record["latency_min_beyond_p99"] = beyond
	rep.printf("latency: p50 %.3f ms, p99 %.3f ms over %d samples in %d groups (at least %d beyond p99 in each)",
		p50, p99, n, len(groups), beyond)
}

// setupSeconds runs setup reps times, each from a freshly collected heap,
// and returns the median duration.
func setupSeconds(reps int, setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}
