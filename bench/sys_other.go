//go:build !linux

package main

import "os"

func filesystemOf(string) string { return "unknown" }

// peakRSSMB is only measured on Linux, the reference platform.
func peakRSSMB(*os.ProcessState) float64 { return 0 }
