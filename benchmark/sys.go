package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// peakRSSMB is the process's resident-set high-water mark: VmHWM from
// /proc/self/status, or the rusage figure where /proc is not mounted.
func peakRSSMB() float64 {
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(buf, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				fields := bytes.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(string(fields[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
