package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const daemonName = "trustnewsd"

// node is one trustnewsd process under the benchmark's control.
type node struct {
	idx      int
	dir      string
	httpAddr string
	consAddr string
	logPath  string
	cmd      *exec.Cmd
	done     chan struct{} // closed when the process has been waited for
}

func (n *node) url(path string) string { return "http://" + n.httpAddr + path }

// exited reports whether the process has ended.
func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// cluster is the set of daemons of one set-up.
type cluster struct {
	nodes []*node
}

// reservePorts binds n loopback ports at once so they are distinct, then
// releases them for the daemons to take.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// spawnCluster starts n daemons with shipped defaults under root (one
// data dir and one log per node). dataDirs, when set, are reused as the
// nodes' -data directories (a preloaded standalone node).
func spawnCluster(bin, root string, n, ingestWorkers int, dataDirs []string) (*cluster, error) {
	ports, err := reservePorts(2 * n)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	var peers []string
	for i := 0; i < n; i++ {
		nd := &node{
			idx:      i,
			dir:      filepath.Join(root, fmt.Sprintf("p%d", i)),
			httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
			consAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			logPath:  filepath.Join(root, fmt.Sprintf("p%d.log", i)),
		}
		if dataDirs != nil {
			nd.dir = dataDirs[i]
		}
		c.nodes = append(c.nodes, nd)
		peers = append(peers, fmt.Sprintf("p%d=%s", i, nd.consAddr))
	}
	for _, nd := range c.nodes {
		args := []string{
			"-addr", nd.httpAddr,
			"-data", nd.dir,
			"-checkpoint-interval", "0",
			"-ingest-workers", strconv.Itoa(ingestWorkers),
		}
		if n > 1 {
			args = append(args,
				"-node-id", fmt.Sprintf("p%d", nd.idx),
				"-peers", strings.Join(peers, ","),
				"-block-interval", "200ms",
			)
		}
		if err := nd.start(bin, args); err != nil {
			c.kill()
			return nil, err
		}
	}
	return c, nil
}

func (n *node) start(bin string, args []string) error {
	logFile, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Own process group so one signal reaches the daemon and anything it
	// might spawn; Pdeathsig so it cannot outlive a crashed driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("start node %d: %w", n.idx, err)
	}
	n.cmd = cmd
	n.done = make(chan struct{})
	go func() {
		_ = cmd.Wait()
		logFile.Close()
		close(n.done)
	}()
	return nil
}

// kill ends every daemon of the cluster and waits for each.
func (c *cluster) kill() {
	if c == nil {
		return
	}
	for _, nd := range c.nodes {
		if nd.cmd != nil && nd.cmd.Process != nil {
			_ = syscall.Kill(-nd.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
	for _, nd := range c.nodes {
		if nd.done != nil {
			<-nd.done
		}
	}
}

// firstExited returns a node that has ended, if any.
func (c *cluster) firstExited() *node {
	for _, nd := range c.nodes {
		if nd.exited() {
			return nd
		}
	}
	return nil
}

// logTail returns the last lines of a node's captured log.
func (n *node) logTail() string {
	raw, err := os.ReadFile(n.logPath)
	if err != nil {
		return "(no log)"
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// strayDaemons lists running trustnewsd processes (pid -> executable).
func strayDaemons() map[int]string {
	out := make(map[int]string)
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return out
	}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err != nil || strings.TrimSpace(string(comm)) != daemonName {
			continue
		}
		exe, _ := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		out[pid] = exe
	}
	return out
}

// clearStrays kills daemons left behind by an earlier run of this
// benchmark (same binary path) and refuses to measure beside any other
// trustnewsd, which would share the cores being measured.
func clearStrays(bin string) error {
	var foreign []string
	for pid, exe := range strayDaemons() {
		if strings.TrimSuffix(exe, " (deleted)") == bin {
			fmt.Fprintf(os.Stderr, "benchmark: killing leftover %s (pid %d)\n", daemonName, pid)
			_ = syscall.Kill(pid, syscall.SIGKILL)
			continue
		}
		foreign = append(foreign, fmt.Sprintf("pid %d (%s)", pid, exe))
	}
	if len(foreign) > 0 {
		return fmt.Errorf("a %s not started by this benchmark is running: %s; stop it and run again",
			daemonName, strings.Join(foreign, ", "))
	}
	// Give the kernel a moment to reap what was just killed.
	deadline := time.Now().Add(2 * time.Second)
	for len(strayDaemons()) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if left := strayDaemons(); len(left) > 0 {
		return errors.New("leftover trustnewsd processes did not exit after SIGKILL")
	}
	return nil
}

// statFields returns the fields of /proc/<pid>/stat that follow the
// parenthesised command name: [0] is the state (field 3 of the line), [1]
// the parent pid, [11] and [12] utime and stime.
func statFields(pid int) ([]string, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return nil, fmt.Errorf("short stat for pid %d", pid)
	}
	return f, nil
}

// procCPU returns user+system CPU seconds consumed by pid so far.
func procCPU(pid int) (float64, error) {
	f, err := statFields(pid)
	if err != nil {
		return 0, err
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable stat for pid %d", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// childDaemons lists the running trustnewsd processes this process started.
func childDaemons() []int {
	var out []int
	for pid := range strayDaemons() {
		if f, err := statFields(pid); err == nil && f[1] == strconv.Itoa(os.Getpid()) {
			out = append(out, pid)
		}
	}
	return out
}

// resetPeakRSS makes the kernel restart pid's peak-RSS watermark (VmHWM)
// from its current RSS. Where the kernel refuses, the peak stays that of
// the process's whole life, on every run alike.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procPeakRSSMB returns the peak resident set of pid in MB (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
