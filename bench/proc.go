package main

import (
	"fmt"
	"io"
	"io/fs"
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

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go runtime supports.
const clockTick = 100

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(text string) (time.Duration, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseVmHWM extracts the peak resident set (bytes) from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: bad VmHWM value %q", f[0])
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sutProc is one running SUT process.
type sutProc struct {
	name       string
	url        string
	gomaxprocs string
	cmd        *exec.Cmd
	stderrPath string        // the process's stderr, kept for the failure report
	done       chan struct{} // closed once Wait has returned
}

// stderrTail returns the last lines the process wrote to stderr.
func (p *sutProc) stderrTail() string {
	data, _ := os.ReadFile(p.stderrPath) //nolint:errcheck // a missing log reads as empty
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 30 {
		lines = lines[len(lines)-30:]
	}
	return strings.Join(lines, "\n")
}

// cpu reads the process's utime+stime so far.
func (p *sutProc) cpu() (time.Duration, error) {
	text, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(text))
}

func (p *sutProc) peakRSS() (int64, error) {
	text, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(text))
}

// kill sends SIGKILL and waits until the process has ended.
func (p *sutProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-p.done
}

// harness owns everything one invocation leaves behind: the work
// directory, the built binaries and every child process. close kills and
// reaps the children and removes the directory, on success, failure and
// SIGINT alike.
type harness struct {
	root    string // repository checkout (current directory)
	workDir string // all run state, removed on close
	binDir  string // built SUT binaries, kept between runs so rebuilds are no-ops
	buildS  float64
	built   bool

	mu    sync.Mutex
	procs []*sutProc
	// started lists every process of the current set-up, running or not,
	// so a failure report can print the stderr of the ones already killed.
	started []*sutProc
}

// newStack forgets the previous set-up's processes in failure reports.
func (h *harness) newStack() {
	h.mu.Lock()
	h.started = nil
	h.mu.Unlock()
}

// buildDir is where the benchmark keeps build outputs and run state
// inside the checkout; .gitignore names it.
const buildDir = ".bench_build"

func newHarness() (*harness, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/waldo-server", "cmd/waldo-gateway"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("run from the repository root: %s is missing", need)
		}
	}
	h := &harness{root: root, binDir: filepath.Join(root, buildDir, "bin")}
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return nil, err
	}
	h.workDir, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	return h, nil
}

// build compiles the two shipped binaries once per invocation. With a
// warm build cache and an up-to-date output this is a sub-second no-op.
func (h *harness) build() error {
	if h.built {
		return nil
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", h.binDir+string(os.PathSeparator),
		"./cmd/waldo-server", "./cmd/waldo-gateway")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	h.built = true
	return nil
}

// tempDir makes a fresh directory under the work dir.
func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.workDir, prefix+"-")
}

// freeAddr probes the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches one shipped binary on a probed loopback port and waits
// until it answers /v1/health. gomaxprocs, when set, goes into the
// child's environment; everything else is the binary's flag defaults.
func (h *harness) start(name, binary, gomaxprocs string, args ...string) (*sutProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.CreateTemp(h.workDir, name+"-*.stderr")
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	p := &sutProc{name: name, url: "http://" + addr, gomaxprocs: gomaxprocs,
		stderrPath: logFile.Name(), done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(h.binDir, binary), append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = logFile
	p.cmd.Env = os.Environ()
	if gomaxprocs != "" {
		p.cmd.Env = append(p.cmd.Env, "GOMAXPROCS="+gomaxprocs)
	} else {
		p.gomaxprocs = "default"
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait() //nolint:errcheck // exit status is reported through stderr and the health wait
		close(p.done)
	}()
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.started = append(h.started, p)
	h.mu.Unlock()
	if err := waitHealthy(p); err != nil {
		return nil, err
	}
	return p, nil
}

// waitHealthy polls /v1/health until the process answers, exits, or 30 s
// pass.
func waitHealthy(p *sutProc) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy:\n%s", p.name, p.stderrTail())
		default:
		}
		resp, err := http.Get(p.url + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 30s:\n%s", p.name, p.stderrTail())
}

// stop kills the given processes and forgets them.
func (h *harness) stop(procs ...*sutProc) {
	for _, p := range procs {
		p.kill()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	kept := h.procs[:0]
	for _, q := range h.procs {
		alive := true
		for _, p := range procs {
			if p == q {
				alive = false
			}
		}
		if alive {
			kept = append(kept, q)
		}
	}
	h.procs = kept
}

// stderrTails returns the last lines each SUT process of the current
// set-up wrote, for the failure report.
func (h *harness) stderrTails() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	for _, p := range h.started {
		fmt.Fprintf(&b, "--- stderr of %s ---\n%s\n", p.name, p.stderrTail())
	}
	return b.String()
}

// close kills every child, waits for each, and removes the work dir.
func (h *harness) close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(h.workDir) //nolint:errcheck // best effort on the way out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // files may vanish mid-walk (snapshot rename)
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
