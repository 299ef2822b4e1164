package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pstore/internal/wire"
)

// Stack shapes. Every stack is two node processes with -max 4 and a
// -data-dir each; async adds one warm follower per node, sync arms
// -sync-commit on all four processes.
const (
	stackPlain = "plain"
	stackAsync = "async"
	stackSync  = "sync"
)

// nodeServeFor bounds every spawned node's life, so a harness that dies
// without running its teardown (SIGKILL) still leaves nothing behind for
// long. It is above the driver's 180 s per-run limit.
const nodeServeFor = "240s"

// proc is one child process. Its stdout and stderr go to files under the
// stack's log directory; done closes when Wait has returned.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	dataDir string
	args    []string
	outPath string
	errPath string
	done    chan struct{}
}

// stack is one deployed configuration of real `pstore serve -node`
// processes, spawned from the built binary and owned until stop.
type stack struct {
	bin       string
	logDir    string  // node stdout/stderr
	nodes     []*proc // primaries, by node id
	followers []*proc // by node id; nil on plain
	extra     []*proc // coord and anything else started against this stack
	stopped   bool
}

// buildPstore compiles ./cmd/pstore into dir once per harness invocation.
// It runs from the repository root (the benchmark's working directory), so a
// directory without the repository fails here, before any result is printed.
func buildPstore(dir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "pstore")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "pstore"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/pstore").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/pstore: %v\n%s", err, out)
	}
	return bin, nil
}

// freePorts reserves n loopback ports by listening on :0 and releases them
// together, just before the caller spawns the processes that bind them.
func freePorts(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// nodeArgs is the serve invocation of node id listening on addr. The same
// arguments restart the node on its own data directory after a kill.
func nodeArgs(id int, addr string, peers []string, machines int, dataDir string) []string {
	args := []string{"serve", "-node", fmt.Sprint(id), "-nodes", fmt.Sprint(len(peers)),
		"-listen", addr, "-machines", fmt.Sprint(machines), "-max", "4",
		"-serve-for", nodeServeFor}
	if len(peers) > 1 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// start spawns one child in its own process group, so that teardown can
// signal the child together with anything it started (coord's -restart-cmd).
func (s *stack) start(name string, args []string) (*proc, error) {
	p := &proc{name: name, args: args, done: make(chan struct{}),
		outPath: filepath.Join(s.logDir, name+".out"),
		errPath: filepath.Join(s.logDir, name+".err")}
	stdout, err := os.OpenFile(p.outPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.OpenFile(p.errPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	p.cmd = exec.Command(s.bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = stdout, stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // exit status is read from the logs, not here
		close(p.done)
	}()
	return p, nil
}

// startStack spawns the primaries, waits for their health endpoints, then
// spawns the followers and waits until each has applied its primary's whole
// durable log. Nothing sleeps on a guess: every wait polls a status endpoint.
func startStack(bin, dir, logDir, kind string, machines, nodes int, durable bool) (*stack, error) {
	s := &stack{bin: bin, logDir: logDir}
	for _, d := range []string{dir, logDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	followers := 0
	if kind != stackPlain {
		followers = nodes
	}
	addrs, err := freePorts(nodes + followers)
	if err != nil {
		return nil, err
	}
	peers := make([]string, nodes)
	for i := range peers {
		peers[i] = "http://" + addrs[i]
	}
	for i := 0; i < nodes; i++ {
		dataDir := ""
		if durable {
			dataDir = filepath.Join(dir, fmt.Sprintf("n%d", i))
		}
		args := nodeArgs(i, addrs[i], peers, machines, dataDir)
		if kind == stackSync {
			args = append(args, "-sync-commit")
		}
		p, err := s.start(fmt.Sprintf("n%d", i), args)
		if err != nil {
			s.stop()
			return nil, err
		}
		p.url, p.dataDir = peers[i], dataDir
		s.nodes = append(s.nodes, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range s.nodes {
		if err := waitHealthy(ctx, p); err != nil {
			s.stop()
			return nil, err
		}
	}
	for i := 0; i < followers; i++ {
		dataDir := filepath.Join(dir, fmt.Sprintf("f%d", i))
		args := append(nodeArgs(i, addrs[nodes+i], peers, machines, dataDir), "-replica-of", peers[i])
		if kind == stackSync {
			args = append(args, "-sync-commit")
		}
		p, err := s.start(fmt.Sprintf("f%d", i), args)
		if err != nil {
			s.stop()
			return nil, err
		}
		p.url, p.dataDir = "http://"+addrs[nodes+i], dataDir
		s.followers = append(s.followers, p)
	}
	for i, f := range s.followers {
		if err := waitHealthy(ctx, f); err != nil {
			s.stop()
			return nil, err
		}
		if err := waitCaughtUp(ctx, s.nodes[i], f); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

var statusClient = &http.Client{Timeout: 2 * time.Second}

// getJSON reads one of a node's status endpoints from outside; postJSON
// triggers an action endpoint that takes no body.
func getJSON(url string, v any) error  { return doJSON(http.MethodGet, url, v) }
func postJSON(url string, v any) error { return doJSON(http.MethodPost, url, v) }

func doJSON(method, url string, v any) error {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return err
	}
	resp, err := statusClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, wire.MaxFrame)).Decode(v)
}

func nodeStatus(p *proc) (wire.NodeStatus, error) {
	var st wire.NodeStatus
	return st, getJSON(p.url+wire.PathNodeStatus, &st)
}

func replStatus(p *proc) (wire.ReplStatus, error) {
	var st wire.ReplStatus
	return st, getJSON(p.url+wire.PathReplStatus, &st)
}

// pollEvery is the status-poll period of the readiness barriers.
const pollEvery = 5 * time.Millisecond

// waitHealthy polls /v1/healthz until the process answers, it exits, or ctx
// ends.
func waitHealthy(ctx context.Context, p *proc) error {
	var out struct {
		OK bool `json:"ok"`
	}
	for {
		if err := getJSON(p.url+wire.PathHealth, &out); err == nil && out.OK {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, p.errPath)
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// waitCaughtUp is the follower barrier: the follower has installed its sync
// snapshot (it reports the primary's epoch as a replica) and its applied
// cursor equals the primary's durable cursor.
func waitCaughtUp(ctx context.Context, primary, follower *proc) error {
	for {
		ps, perr := replStatus(primary)
		fs, ferr := replStatus(follower)
		if perr == nil && ferr == nil && fs.Role == "replica" && fs.Epoch == ps.Epoch &&
			fs.Applied.Seg == ps.Durable.Seg && fs.Applied.Rec == ps.Durable.Rec {
			return nil
		}
		select {
		case <-follower.done:
			return fmt.Errorf("%s exited before catching up (see %s)", follower.name, follower.errPath)
		case <-ctx.Done():
			return fmt.Errorf("%s never caught up with %s: %w", follower.name, primary.name, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// all lists every process started against the stack.
func (s *stack) all() []*proc {
	out := append([]*proc(nil), s.nodes...)
	out = append(out, s.followers...)
	return append(out, s.extra...)
}

// stop ends every process of the stack and waits for each: SIGTERM first,
// so nodes print their exit summary, then SIGKILL to the whole process
// group for anything still alive after the grace period.
func (s *stack) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	procs := s.all()
	for _, p := range procs {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
	}
	grace := time.After(5 * time.Second)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-grace:
		}
	}
	for _, p := range procs {
		// The group outlives its leader while a grandchild (a node that
		// coord restarted) still runs; ESRCH just means it is empty.
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
	}
}

// kill SIGKILLs one process (fault injection) and waits until it is gone.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// becomeSubreaper makes this process the parent of orphaned descendants
// (Linux PR_SET_CHILD_SUBREAPER), so the node that `coord -restart-cmd`
// launches through a shell can be waited for like a direct child.
func becomeSubreaper() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// reapOrphans waits for every remaining descendant. It runs only after all
// exec.Cmd children have been waited for, so it cannot steal their status;
// what is left was killed with its process group a moment ago.
func reapOrphans() {
	for {
		var ws syscall.WaitStatus
		_, err := syscall.Wait4(-1, &ws, 0, nil)
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil { // ECHILD: nothing left
			return
		}
	}
}

// dirBytes sizes a data directory from outside.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // files vanish under a live WAL (compaction); skip them
	})
	return n
}
