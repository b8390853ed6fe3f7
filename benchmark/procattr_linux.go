package main

import "syscall"

// childProcAttr makes the kernel kill a spawned worker if the harness dies
// without running its clean-up (SIGKILL, panic in another goroutine).
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
