package main

// Process hygiene for the workloads that run real dgsd / dgsgw: the
// daemons are built once, every child runs in its own process group on a
// port picked free at run time, and whatever way the benchmark leaves —
// normally, on a failed health wait or on a signal — every group is
// killed, waited for, and checked to be gone.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// healthWait bounds how long a spawned process may take to accept
// connections before the set-up fails.
const healthWait = 10 * time.Second

// host is where the benchmark runs: the repository it measures, the
// scratch directory of this run, and the children it owns.
type host struct {
	root   string // repository root (the directory of the dgs go.mod)
	binDir string // built dgsd and dgsgw; kept between runs as a build cache
	runDir string // this run's graph files and child logs; removed on exit

	mu    sync.Mutex
	procs map[int]*proc // live children by pid
}

type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait returned
}

// findRoot walks up from the working directory to the dgs module root,
// so that both `go run -C benchmark .` and run.sh from the root work.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module dgs\n") {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("not inside the dgs repository: no go.mod declaring module dgs above the working directory")
		}
		dir = up
	}
}

func newHost() (*host, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(build, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &host{root: root, binDir: binDir, runDir: runDir, procs: make(map[int]*proc)}, nil
}

// buildDaemons compiles cmd/dgsd and cmd/dgsgw. go build leaves an
// up-to-date binary alone, so only the first run in a checkout pays.
func (h *host) buildDaemons(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", h.binDir+string(os.PathSeparator), "./cmd/dgsd", "./cmd/dgsgw")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build of the daemons: %v\n%s", err, out)
	}
	return nil
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer lis.Close()
	return lis.Addr().String(), nil
}

// start launches bin from binDir in its own process group, logging to
// the run directory.
func (h *host) start(name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(h.runDir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(h.binDir, bin), args...)
	cmd.Dir = h.runDir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	h.mu.Lock()
	h.procs[cmd.Process.Pid] = p
	h.mu.Unlock()
	go func() {
		_ = cmd.Wait() // a killed child reports its signal; exit is all that matters here
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log) // best effort: the tail only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// awaitTCP waits until addr accepts a connection, p exits, or the health
// wait runs out.
func (p *proc) awaitTCP(ctx context.Context, addr string) error {
	return p.await(ctx, func() bool {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
}

// awaitHTTP waits until GET url answers 200.
func (p *proc) awaitHTTP(ctx context.Context, client *http.Client, url string) error {
	return p.await(ctx, func() bool {
		resp, err := client.Get(url)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

func (p *proc) await(ctx context.Context, healthy func() bool) error {
	deadline := time.NewTimer(healthWait)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if healthy() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.done:
			return fmt.Errorf("%s exited before it was healthy:\n%s", p.name, p.logTail())
		case <-deadline.C:
			return fmt.Errorf("%s not healthy after %v:\n%s", p.name, healthWait, p.logTail())
		case <-tick.C:
		}
	}
}

// stop kills the given children's process groups and waits for each.
func (h *host) stop(ps ...*proc) {
	for _, p := range ps {
		// The group id is the child's pid (Setpgid); ESRCH means it is gone.
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
	}
	for _, p := range ps {
		<-p.done
		h.mu.Lock()
		delete(h.procs, p.pid())
		h.mu.Unlock()
	}
}

// close stops every child still owned, removes the run directory and
// reports any owned pid that survived.
func (h *host) close() error {
	h.mu.Lock()
	var live []*proc
	for _, p := range h.procs {
		live = append(live, p)
	}
	h.mu.Unlock()
	h.stop(live...)
	var survivors []string
	for _, p := range live {
		if err := syscall.Kill(p.pid(), 0); err == nil {
			survivors = append(survivors, fmt.Sprintf("%s (pid %d)", p.name, p.pid()))
		}
	}
	err := os.RemoveAll(h.runDir)
	if len(survivors) > 0 {
		return fmt.Errorf("owned processes survived: %s", strings.Join(survivors, ", "))
	}
	return err
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTick = 100

// cpuSeconds reads a process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields count from after ")".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14 of the file
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times %q %q", pid, f[11], f[12])
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads a process's VmHWM, its resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// usage is the CPU of the owned processes at one instant, and their
// summed peak memory.
type usage struct {
	selfCPU, daemonCPU, gatewayCPU float64
	peakRSSMB                      float64
}

func (u usage) totalCPU() float64 { return u.selfCPU + u.daemonCPU + u.gatewayCPU }

// usageNow samples every owned process: the benchmark itself and its
// live children.
func (h *host) usageNow() (usage, error) {
	var u usage
	self := os.Getpid()
	cpu, err := cpuSeconds(self)
	if err != nil {
		return u, err
	}
	u.selfCPU = cpu
	rss, err := peakRSSMB(self)
	if err != nil {
		return u, err
	}
	u.peakRSSMB = rss
	h.mu.Lock()
	defer h.mu.Unlock()
	for pid, p := range h.procs {
		cpu, err := cpuSeconds(pid)
		if err != nil {
			return u, fmt.Errorf("%s: %w", p.name, err)
		}
		if strings.HasPrefix(p.name, "dgsd") {
			u.daemonCPU += cpu
		} else {
			u.gatewayCPU += cpu
		}
		rss, err := peakRSSMB(pid)
		if err != nil {
			return u, fmt.Errorf("%s: %w", p.name, err)
		}
		u.peakRSSMB += rss
	}
	return u, nil
}
