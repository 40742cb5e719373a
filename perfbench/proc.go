package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one escaped child process. Its log goes to a ring of recent lines
// (shown when it fails) and its listen address is parsed from the startup
// line, so every process binds an ephemeral port.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // base URL, e.g. http://127.0.0.1:40123
	done chan struct{}

	mu   sync.Mutex
	tail []string
}

const servingMarker = "serving the Unify interface on "

// startProc launches bin and waits until it announces its listen address.
// The child is killed by the kernel if this process dies first.
func startProc(ctx context.Context, bin, name string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = nil
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if i := strings.Index(line, servingMarker); i >= 0 {
				f := strings.Fields(line[i+len(servingMarker):])
				if len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		_ = cmd.Wait() // the exit status is reported through the log tail
		close(p.done)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start-up: %s", name, p.logTail())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start within 30s: %s", name, p.logTail())
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop asks the process to shut down, kills it after a grace period, and
// returns once it has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

func stopAll(ps []*proc) {
	var wg sync.WaitGroup
	for _, p := range ps {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100 on
// every Linux architecture Go supports.
const clkTck = 100

// cpuTime is a process's user+system CPU time so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// Fields after the command name start at field 3 (state); utime and
	// stime are fields 14 and 15.
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// cpuTimeOf sums cpuTime over processes.
func cpuTimeOf(ps []*proc) (time.Duration, error) {
	var total time.Duration
	for _, p := range ps {
		t, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += t
	}
	return total, nil
}

// peakRSSMB is the VmHWM of a process ("self" for this one) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
