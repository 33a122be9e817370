//go:build !linux

package main

import "os/exec"

// killWithParent has no portable equivalent outside Linux.
func killWithParent(*exec.Cmd) {}

// peakRSSMB is only measured on Linux (VmHWM); elsewhere it reports 0.
func peakRSSMB() float64 { return 0 }
