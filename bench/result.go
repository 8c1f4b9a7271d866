package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// header identifies the machine, the build and the settings of a run;
// every result file starts with it.
type header struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	WindowSeconds float64 `json:"window_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	// Scale is the common factor the issue's 3 s / 30 s / 10 s windows
	// were scaled by.
	Scale float64 `json:"scale"`
}

func newHeader(rc runConfig) header {
	pl := makePlan(0, rc.seconds, rc.trace)
	return header{
		Commit: vcsRevision(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: rc.seed, Trace: rc.trace,
		WindowSeconds: pl.measured().seconds(), WarmupSeconds: float64(pl.untraced.from) / 1e9,
		Scale: rc.seconds / issueSeconds,
	}
}

// vcsRevision is the commit the binary was built from, when the build
// stamped one (a checkout without .git does not).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
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

// resultFile is one run as -out keeps it and -check reads it. Every
// metric carries its sample count.
type resultFile struct {
	Header    header                 `json:"header"`
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  map[string]int64       `json:"failures"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

func (r resultFile) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(b, &r)
}
