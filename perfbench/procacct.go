package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. Linux has
// reported USER_HZ = 100 to user space on every architecture for decades.
const clockTick = 10 * time.Millisecond

// cpuSnap is the CPU used so far by this process and its child
// processes. getrusage(RUSAGE_CHILDREN) only counts children that have
// been waited for, so a warm ppm-node fleet that is still running is
// invisible to it; those live children are read from /proc instead and
// kept by pid, so a child seen live at the start and reaped before the
// end is not counted twice.
type cpuSnap struct {
	self     time.Duration
	reaped   time.Duration         // RUSAGE_CHILDREN: every waited-for child, whole lifetime
	live     map[int]time.Duration // children still running: pid -> CPU so far
	liveHWM  map[int]int64         // children still running: pid -> peak RSS bytes
	reapedRS int64                 // largest peak RSS of any waited-for child, bytes
}

func rusageCPU(who int) (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss * 1024
}

// takeCPU snapshots this process and its direct children.
func takeCPU() cpuSnap {
	var s cpuSnap
	s.self, _ = rusageCPU(syscall.RUSAGE_SELF)
	s.reaped, s.reapedRS = rusageCPU(syscall.RUSAGE_CHILDREN)
	s.live, s.liveHWM = liveChildren(os.Getpid())
	return s
}

// childCPUSince is the CPU the children spent between from and s:
// waited-for children's growth, plus what live children have used now,
// minus what the children live at from had already used then. A child
// live at from and reaped since appears in the rusage growth with its
// whole lifetime, and its earlier share is taken off again here.
func (s cpuSnap) childCPUSince(from cpuSnap) time.Duration {
	d := s.reaped - from.reaped
	for _, c := range s.live {
		d += c
	}
	for _, c := range from.live {
		d -= c
	}
	return d
}

// cpuSince is this process's CPU plus its children's between from and s.
func (s cpuSnap) cpuSince(from cpuSnap) time.Duration {
	return s.self - from.self + s.childCPUSince(from)
}

// childPeakRSS estimates the children's combined peak resident memory:
// the live children's summed peaks, or, when the fleets were reaped,
// the largest reaped child's peak times the number of children a
// workload runs at once.
func (s cpuSnap) childPeakRSS(concurrent int) int64 {
	var live int64
	for _, b := range s.liveHWM {
		live += b
	}
	if r := s.reapedRS * int64(concurrent); r > live {
		return r
	}
	return live
}

// liveChildren scans /proc for the running children of pid: their CPU
// so far and their peak resident memory.
func liveChildren(pid int) (map[int]time.Duration, map[int]int64) {
	cpu := map[int]time.Duration{}
	hwm := map[int]int64{}
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		c, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		st, ok := procStat(c)
		if !ok || st.ppid != pid {
			continue
		}
		cpu[c] = st.cpu
		hwm[c] = procHWM(c)
	}
	return cpu, hwm
}

type statFields struct {
	ppid int
	cpu  time.Duration // utime + stime
}

// procStat reads the parent pid and CPU time from /proc/<pid>/stat.
func procStat(pid int) (statFields, bool) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return statFields{}, false
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return statFields{}, false
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state): ppid is field 4, utime and stime 14 and 15.
	if len(f) < 13 {
		return statFields{}, false
	}
	ppid, err0 := strconv.Atoi(f[1])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err0 != nil || err1 != nil || err2 != nil {
		return statFields{}, false
	}
	return statFields{ppid: ppid, cpu: time.Duration(ut+st) * clockTick}, true
}

// resetPeakRSS restarts the peak-RSS mark (VmHWM) of this process and
// its live children, so a peak read later covers only what ran since:
// the timed window, not the reference runs or set-up. Writing 5 to
// /proc/<pid>/clear_refs does this on Linux 4.0 and later; where it
// fails, the peaks stay lifetime peaks.
func resetPeakRSS() {
	pids := []int{os.Getpid()}
	live, _ := liveChildren(os.Getpid())
	for pid := range live {
		pids = append(pids, pid)
	}
	for _, pid := range pids {
		os.WriteFile(filepath.Join("/proc", strconv.Itoa(pid), "clear_refs"), []byte("5"), 0)
	}
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) int64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb * 1024
			}
		}
	}
	return 0
}
