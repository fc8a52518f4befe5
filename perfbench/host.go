package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostFingerprint identifies the machine a result was measured on: CPU
// count, GOMAXPROCS, Go version, CPU model and the L2/L3 cache sizes
// (read from /proc and /sys on Linux; "unknown" elsewhere).
func hostFingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
	for _, level := range []string{"2", "3"} {
		fp["l"+level+"_cache"] = cacheSize(level)
	}
	return fp
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

// cacheSize is cpu0's unified or data cache size at the given level.
func cacheSize(level string) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != level {
			continue
		}
		if typ, _ := os.ReadFile(filepath.Join(d, "type")); strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}
