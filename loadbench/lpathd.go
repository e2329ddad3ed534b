package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// lpathd is one running server process.
type lpathd struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startLpathd runs bin with default flags apart from the listen address and
// the corpus file, and waits until /healthz answers 200. procs > 0 sets its
// GOMAXPROCS. It returns the time from process start to that answer. stderr
// (lpathd's request log) goes to logFile.
func startLpathd(client *http.Client, bin, corpusFlag, corpusPath string, procs int, logFile *os.File) (*lpathd, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, corpusFlag, "wsj="+corpusPath)
	if procs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lpathd: %w", err)
	}
	d := &lpathd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.done) }()
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("lpathd exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if time.Since(start) > 120*time.Second {
			d.stop()
			return nil, 0, errors.New("lpathd not healthy after 120s")
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop terminates the server and waits for it to exit.
func (d *lpathd) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (d *lpathd) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// promSample maps a Prometheus series ("name{labels}") to its value.
type promSample map[string]float64

func (d *lpathd) scrape(client *http.Client) (promSample, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds the series of metric name whose labels contain every one of
// labels (each like `event="hit"`).
func (p promSample) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range p {
		series, rest, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after - before for one metric selection.
func delta(before, after promSample, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
