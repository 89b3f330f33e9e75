package main

import (
	"bufio"
	"bytes"
	"context"
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

// buildQuantiled compiles the repository's cmd/quantiled into dir and
// returns the binary's path.
func buildQuantiled(ctx context.Context, repo, dir string) (string, error) {
	if _, err := os.Stat(filepath.Join(repo, "cmd", "quantiled")); err != nil {
		return "", fmt.Errorf("%s does not look like the repository root: %w", repo, err)
	}
	bin, err := filepath.Abs(filepath.Join(dir, "quantiled"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/quantiled")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building quantiled: %v\n%s", err, out)
	}
	return bin, nil
}

// node is one running quantiled process; done closes once it has exited.
type node struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{}
}

func (n *node) url() string { return "http://" + n.addr }

// tailBuffer keeps the last 4 KiB a process wrote to stderr, for errors.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// topo is a running set of quantiled processes. ingest receives the
// generator's frames; query answers its queries (the root in a tree).
type topo struct {
	nodes         []*node
	ingest, query *node
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// nodeSpecs lists the processes of a workload's topology, parents first,
// as (name, flags) pairs with the listen address still to be added.
func nodeSpecs(w *workload, seed uint64) ([][]string, error) {
	eps := strconv.FormatFloat(w.nodeEps(), 'g', -1, 64)
	common := []string{"-eps", eps, "-delta", strconv.FormatFloat(delta, 'g', -1, 64),
		"-seed", strconv.FormatUint(seed, 10), "-log-level", "warn"}
	switch w.topo {
	case standalone:
		return [][]string{append([]string{"standalone"}, common...)}, nil
	case keyedStore:
		return [][]string{append([]string{"standalone"}, append(common,
			"-keys-max", strconv.Itoa(keysMax), "-window", windowSpan.String(),
			"-window-epochs", strconv.Itoa(windowEpochs))...)}, nil
	case tree:
		ship := shipInterval.String()
		return [][]string{
			append([]string{"root", "-role", "coordinator"}, common...),
			append([]string{"agg", "-role", "aggregator", "-level", "1", "-worker-id", "a0",
				"-ship-interval", ship, "-parent", "{root}"}, common...),
			append([]string{"worker", "-role", "worker", "-worker-id", "w0",
				"-ship-interval", ship, "-coordinator", "{agg}"}, common...),
		}, nil
	}
	return nil, fmt.Errorf("unknown topology %d", w.topo)
}

// startTopo launches the workload's processes and returns once every node
// answers GET /stats with 200, with the time that took from the first spawn.
func startTopo(ctx context.Context, bin string, w *workload, seed uint64) (*topo, time.Duration, error) {
	specs, err := nodeSpecs(w, seed)
	if err != nil {
		return nil, 0, err
	}
	t := &topo{}
	urls := map[string]string{}
	addrs := make([]string, len(specs))
	for i, spec := range specs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, 0, err
		}
		urls["{"+spec[0]+"}"] = "http://" + addrs[i]
	}
	begin := time.Now()
	for i, spec := range specs {
		args := []string{"-addr", addrs[i]}
		for _, a := range spec[1:] {
			if u, ok := urls[a]; ok {
				a = u
			}
			args = append(args, a)
		}
		n := &node{name: spec[0], addr: addrs[i], log: &tailBuffer{}, done: make(chan struct{})}
		n.cmd = exec.Command(bin, args...)
		n.cmd.Stdout, n.cmd.Stderr = n.log, n.log
		// The kernel kills the server if the benchmark dies first.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := n.cmd.Start(); err != nil {
			t.stop()
			return nil, 0, fmt.Errorf("starting %s: %w", n.name, err)
		}
		go func() {
			_ = n.cmd.Wait()
			close(n.done)
		}()
		t.nodes = append(t.nodes, n)
	}
	t.query, t.ingest = t.nodes[0], t.nodes[len(t.nodes)-1]
	if err := t.waitReady(ctx); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(begin), nil
}

func (t *topo) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range t.nodes {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url()+"/stats", nil)
			if err != nil {
				return err
			}
			if resp, err := hc.Do(req); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if err := t.exited(); err != nil {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never answered /stats:\n%s", n.name, n.log)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// stop kills every process and waits for each to exit.
func (t *topo) stop() {
	for _, n := range t.nodes {
		_ = n.cmd.Process.Kill()
	}
	for _, n := range t.nodes {
		<-n.done
	}
}

// exited reports the first node that is no longer running, if any.
func (t *topo) exited() error {
	for _, n := range t.nodes {
		select {
		case <-n.done:
			return fmt.Errorf("%s exited: %v\n%s", n.name, n.cmd.ProcessState, n.log)
		default:
		}
	}
	return nil
}

// peakRSSMiB sums VmHWM, the peak resident set, over the processes.
func (t *topo) peakRSSMiB() (float64, error) {
	var kib float64
	for _, n := range t.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err != nil {
					return 0, fmt.Errorf("%s VmHWM %q: %w", n.name, v, err)
				}
				kib += f
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("%s: no VmHWM in /proc status", n.name)
		}
	}
	return kib / 1024, nil
}
