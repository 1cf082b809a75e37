package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envHeader records where and under what fixed conditions a run was made.
type envHeader struct {
	CPUModel   string   `json:"cpu_model"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	RAMBytes   int64    `json:"ram_bytes"`
	Kernel     string   `json:"kernel"`
	GoVersion  string   `json:"go_version"`
	GitCommit  string   `json:"git_commit"`
	Dirty      bool     `json:"dirty"` // true also when the commit is unknown
	Conditions []string `json:"fixed_conditions"`
}

var fixedConditions = []string{
	"obs tracer nil",
	"product-default flush policy (logstore 1 MiB buffer, TC log 1 MiB flush-on-full, LSM memtable 256 KiB, inline compaction)",
	"no Flush, Checkpoint, GC or CollectSegment calls the served path does not make",
	"default GOGC",
	"2 client goroutines and at most 2 connections unless the workload says otherwise",
}

func readEnv() envHeader {
	env := envHeader{
		CPUModel:   firstField("/proc/cpuinfo", "model name"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Dirty:      true,
		Conditions: fixedConditions,
	}
	if kb, err := strconv.ParseInt(strings.TrimSuffix(firstField("/proc/meminfo", "MemTotal"), " kB"), 10, 64); err == nil {
		env.RAMBytes = kb << 10
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = "Linux " + string(b)
	}
	// Ask git only about a checkout that is itself a repository: the
	// driver's checkout is not, and git would otherwise search its parents.
	if _, err := os.Stat(".git"); err == nil {
		if commit, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.GitCommit = strings.TrimSpace(string(commit))
			status, err := exec.Command("git", "status", "--porcelain").Output()
			env.Dirty = err != nil || len(strings.TrimSpace(string(status))) > 0
		}
	}
	return env
}

// firstField returns the value of the first "key : value" line of a /proc file.
func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stolenSeconds is the CPU time the hypervisor gave to other guests since
// boot, summed over this VM's CPUs (0 where /proc/stat has no steal column).
// A run prints how much was stolen while it measured: numbers taken under
// steal are the neighbours', not the program's.
func stolenSeconds() float64 {
	fields := strings.Fields(firstLine("/proc/stat"))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func firstLine(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan()
	return sc.Text()
}
