package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mixtime/internal/runner"
)

// setupSpawns is how many daemons a serve run starts to measure set-up;
// it reports the median.
const setupSpawns = 5

// peakRSSMiB reads the peak resident set (VmHWM) of process pid
// ("self" for this process) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// passChild is the -pass mode: initialise what a batch workload needs
// before its first experiment (the registered drivers, the run
// configuration), report "ready", run one pass at seed and print its
// result as JSON.
func passChild(workload string, seed uint64) int {
	w, ok := batchWorkloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: -pass needs a batch workload, got %q\n", workload)
		return 2
	}
	for _, id := range w.ids {
		if _, ok := runner.Default().Resolve(id); !ok {
			fmt.Fprintf(os.Stderr, "perfbench: experiment %s is not registered\n", id)
			return 2
		}
	}
	fmt.Println("ready")
	pr := runPass(context.Background(), w, seed)
	out, err := json.Marshal(childPass{Wall: pr.wall, Jobs: pr.jobs, Digest: pr.digest, Failed: pr.failed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	return 0
}

// childPass is what a -pass child reports.
type childPass struct {
	Wall   time.Duration
	Jobs   map[string]time.Duration
	Digest string
	Failed []string
}

// spawnPass runs one batch pass in a fresh process of this binary. It
// returns the pass, the time from process start until the child was
// ready to run its first experiment, and the child's peak resident
// set in MiB.
func spawnPass(workload string, seed uint64) (passResult, time.Duration, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, 0, 0, err
	}
	cmd := exec.Command(self, "-pass", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return passResult{}, 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return passResult{}, 0, 0, err
	}
	r := bufio.NewReader(out)
	line, rerr := r.ReadString('\n')
	ready := time.Since(t0)
	var res childPass
	if rerr == nil && strings.TrimSpace(line) == "ready" {
		if line, rerr = r.ReadString('\n'); rerr == nil {
			rerr = json.Unmarshal([]byte(line), &res)
		}
	} else if rerr == nil {
		rerr = fmt.Errorf("child said %q, want ready", line)
	}
	werr := cmd.Wait()
	if rerr != nil || werr != nil {
		return passResult{}, 0, 0, fmt.Errorf("pass child: %v, %v", rerr, werr)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return passResult{}, 0, 0, fmt.Errorf("no rusage for the pass child")
	}
	pr := passResult{wall: res.Wall, jobs: res.Jobs, digest: res.Digest, failed: res.Failed}
	return pr, ready, float64(ru.Maxrss) / 1024, nil
}
