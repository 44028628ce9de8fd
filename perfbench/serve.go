package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times each run launches its server; setup_s is the
// median launch-to-healthy time, and the last launch serves the workload.
const setupRuns = 9

// serveProc is one running cmd/serve process.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error
}

// freeAddr reserves a loopback port for the next server.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// launch starts bin with args on a fresh loopback port, appending its
// output to logPath, and returns once /healthz answers 200, with the time
// from exec to that answer.
func launch(ctx context.Context, bin string, args []string, logPath string) (*serveProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serveProc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	if err := p.waitHealthy(ctx); err != nil {
		p.kill()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, logPath)
	}
	return p, time.Since(start), nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or a
// minute passes.
func (p *serveProc) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("serve exited before becoming healthy: %v", p.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// Short, so the poll adds little to a set-up of a few ms.
		time.Sleep(250 * time.Microsecond)
	}
	return errors.New("serve not healthy after a minute")
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serveProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	<-p.done
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (p *serveProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// cpuTime reads the process's user plus system CPU time.
func (p *serveProc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// launchRepeated launches setupRuns servers in turn, killing all but the
// last, and returns the last with the median launch time. argsFor gives the
// arguments of launch i (a fresh state directory each, where one is used).
func launchRepeated(ctx context.Context, bin string, argsFor func(i int) []string, logPath string) (*serveProc, float64, error) {
	var times []float64
	var p *serveProc
	for i := 0; i < setupRuns; i++ {
		if p != nil {
			p.kill()
		}
		var d time.Duration
		var err error
		p, d, err = launch(ctx, bin, argsFor(i), logPath)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return p, median(times), nil
}
