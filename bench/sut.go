package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
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

// buildSUT compiles the programs under test into dir, once, before any
// timing.
func buildSUT(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/astrareport", "./cmd/astrad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build system under test: %v\n%s", err, out)
	}
	return nil
}

// running tracks every started process so an aborted run can still stop
// and reap them all.
var running struct {
	sync.Mutex
	set map[*proc]bool
}

// stopAll kills and reaps every process still running.
func stopAll() {
	running.Lock()
	ps := make([]*proc, 0, len(running.set))
	for p := range running.set {
		ps = append(ps, p)
	}
	running.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// proc is one process of the system under test: its wall clock, CPU
// time, and resident set sampled at 10 Hz while it runs.
type proc struct {
	cmd    *exec.Cmd
	start  time.Time
	exit   time.Time
	err    error
	done   chan struct{} // closed once the process is reaped and sampling stopped
	stderr *lineWatch

	mu  sync.Mutex
	rss []rssSample
}

type rssSample struct {
	at time.Time
	mb float64
}

// startProc execs bin with args; stdout goes to stdout (nil discards).
func startProc(bin string, args []string, stdout io.Writer) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stdout
	w := &lineWatch{}
	cmd.Stderr = w
	p := &proc{cmd: cmd, stderr: w, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	running.Lock()
	if running.set == nil {
		running.set = map[*proc]bool{}
	}
	running.set[p] = true
	running.Unlock()
	exited := make(chan struct{})
	go func() {
		p.err = cmd.Wait()
		p.exit = time.Now()
		close(exited)
	}()
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-exited:
				running.Lock()
				delete(running.set, p)
				running.Unlock()
				close(p.done)
				return
			case now := <-tick.C:
				if mb, ok := vmRSS(cmd.Process.Pid); ok {
					p.mu.Lock()
					p.rss = append(p.rss, rssSample{now, mb})
					p.mu.Unlock()
				}
			}
		}
	}()
	return p, nil
}

// wait blocks until the process has exited and returns its wall time.
func (p *proc) wait() (time.Duration, error) {
	<-p.done
	if p.err != nil {
		return p.exit.Sub(p.start), fmt.Errorf("%s: %v: %s", filepath.Base(p.cmd.Path), p.err, p.stderr.tail())
	}
	return p.exit.Sub(p.start), nil
}

// stop sends SIGTERM and returns how long the process took to exit.
func (p *proc) stop() (time.Duration, error) {
	sent := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	_, err := p.wait()
	return p.exit.Sub(sent), err
}

// cpu is the user+system CPU time of an exited process.
func (p *proc) cpu() time.Duration {
	st := p.cmd.ProcessState
	return st.UserTime() + st.SystemTime()
}

// peakMB is the peak resident set of an exited process (its rusage
// high-water mark).
func (p *proc) peakMB() float64 {
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // kB on Linux
	}
	return 0
}

// cpuNow reads the CPU time a running process has used so far from
// /proc/<pid>/stat (utime + stime, in 10 ms clock ticks).
func (p *proc) cpuNow() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// rssBetween returns the resident-set samples (MB) taken in [from, to];
// a zero `to` means up to now.
func (p *proc) rssBetween(from, to time.Time) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, s := range p.rss {
		if !s.at.Before(from) && (to.IsZero() || !s.at.After(to)) {
			out = append(out, s.mb)
		}
	}
	return out
}

// vmRSS reads a process's resident set size in MB.
func vmRSS(pid int) (float64, bool) { return procStatus(pid, "VmRSS:") }

// procStatus reads one kB field of /proc/<pid>/status in MB.
func procStatus(pid int, field string) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// lineWatch collects a process's stderr (the last 64 KiB) and reports
// the address astrad logs once it is listening.
type lineWatch struct {
	mu     sync.Mutex
	buf    []byte
	addr   string
	listen chan struct{}
}

func (w *lineWatch) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, b...)
	if w.addr == "" {
		if i := bytes.Index(w.buf, []byte("msg=listening addr=")); i >= 0 {
			rest := w.buf[i+len("msg=listening addr="):]
			if j := bytes.IndexAny(rest, " \n"); j >= 0 {
				w.addr = string(rest[:j])
				close(w.listening())
			}
		}
	}
	if len(w.buf) > 64<<10 {
		w.buf = append(w.buf[:0], w.buf[len(w.buf)-32<<10:]...)
	}
	return len(b), nil
}

func (w *lineWatch) listening() chan struct{} {
	if w.listen == nil {
		w.listen = make(chan struct{})
	}
	return w.listen
}

func (w *lineWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.buf
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// startDaemon execs astrad and waits until it logs its listening
// address. It returns the process and the time from exec to listening.
func startDaemon(bin string, args []string) (*proc, string, time.Duration, error) {
	p, err := startProc(bin, args, nil)
	if err != nil {
		return nil, "", 0, err
	}
	p.stderr.mu.Lock()
	ch := p.stderr.listening()
	p.stderr.mu.Unlock()
	select {
	case <-ch:
	case <-p.done:
		_, err := p.wait()
		return nil, "", 0, fmt.Errorf("astrad exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		_ = p.cmd.Process.Kill()
		_, _ = p.wait()
		return nil, "", 0, fmt.Errorf("astrad not listening after 60s: %s", p.stderr.tail())
	}
	listened := time.Since(p.start)
	p.stderr.mu.Lock()
	addr := p.stderr.addr
	p.stderr.mu.Unlock()
	return p, addr, listened, nil
}

// newClient is one HTTP client holding at most one keep-alive
// connection, as the load generator's connection budget requires.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// response is one HTTP exchange as the benchmark sees it.
type response struct {
	code int
	etag string
	body []byte
	done time.Time
	err  error
}

// get sends one GET (conditional when etag is set) and reads the body.
func get(c *http.Client, url, etag string) response {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return response{err: err, done: time.Now()}
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return response{err: err, done: time.Now()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{code: resp.StatusCode, etag: resp.Header.Get("Etag"), body: body, done: time.Now(), err: err}
}

// ok reports a 2xx or 304 exchange.
func (r response) ok() bool {
	return r.err == nil && (r.code/100 == 2 || r.code == http.StatusNotModified)
}
