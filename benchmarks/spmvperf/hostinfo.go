package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the run metadata printed with every report: enough to
// tell two reports from different machines or commits apart.
type hostInfo struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
}

// readHostInfo gathers the metadata; whatever the host does not expose
// is reported as "unknown" instead of failing the run.
func readHostInfo() hostInfo {
	h := hostInfo{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	// Only ask git when the working directory is the root of a clone; a
	// bare checkout of the files stays "unknown".
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range dirs {
		read := func(name string) string {
			data, _ := os.ReadFile(filepath.Join(dir, name))
			return strings.TrimSpace(string(data))
		}
		if size := read("size"); size != "" {
			h.Caches = append(h.Caches, fmt.Sprintf("L%s %s %s", read("level"), read("type"), size))
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("commit %s  %s  nproc %d  GOMAXPROCS %d  cpu %q  caches %s",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.CPUModel, strings.Join(h.Caches, ", "))
}
