package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// spinArg is the one argument with which the harness re-executes itself
// as a spinner. It is not a flag of the benchmark.
const spinArg = "-spin-idle"

// keepAwake starts one spinner process per processor, each at the
// operating system's idle priority. The caller stops them.
//
// A spinner runs only while nothing else wants its processor, so it
// takes nothing from the program under test; what it does is keep the
// processor from halting. The benchmark was sized on a virtual machine,
// and a virtual processor that halts hands its core back to the host: the
// next request then waits until the host has rescheduled it, and finds
// it cold. On a shared host that wait comes and goes in stretches of
// 30 to 70 s. fleet_open, which leaves the processors idle nine tenths of
// the time, read a p50 of 23.9 to 30.0 ms over fourteen runs without
// spinners and 23.1 to 24.0 ms over the fourteen made in turn with
// them; README.md, Noise control, has the table. Every figure of the
// benchmark is therefore the program's on a machine that is awake.
func keepAwake() (*spinners, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Each spinner reads this pipe and exits when it closes, which it
	// does when the harness ends for whatever reason: a harness that is
	// killed leaves no spinner behind.
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	sp := &spinners{r: r, w: w}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(exe, spinArg)
		c.Stdin, c.Stderr = r, os.Stderr
		if err := c.Start(); err != nil {
			sp.stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		sp.procs = append(sp.procs, c)
	}
	return sp, nil
}

type spinners struct {
	procs []*exec.Cmd
	r, w  *os.File
}

// stop ends every spinner and waits until it has ended.
func (sp *spinners) stop() {
	sp.w.Close()
	for _, c := range sp.procs {
		_ = c.Process.Kill() // it may have seen the pipe close already
		_ = c.Wait()
	}
	sp.r.Close()
}

// spinIdle is the spinner: it drops its thread to SCHED_IDLE, below every
// nice level, or failing that to nice 19, and loops until its standard
// input closes.
func spinIdle() {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // lowering one's own priority is always allowed
	}
	for {
	}
}
