package main

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain doubles as the child process of the accounting test: with
// PERFBENCH_CHILD=burn it spends CPU, then idles until its stdin closes,
// like a warm ppm-node fleet waiting for its next job.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_CHILD") == "burn" {
		burn(300 * time.Millisecond)
		os.Stdin.Read(make([]byte, 1))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// burn spins until the process has used d of CPU.
func burn(d time.Duration) {
	start, _ := procStat(os.Getpid())
	x := uint64(1)
	for i := 0; ; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if i%(1<<20) == 0 {
			if st, _ := procStat(os.Getpid()); st.cpu-start.cpu >= d {
				break
			}
		}
	}
	if x == 0 {
		os.Exit(3)
	}
}

// A live child's CPU is invisible to getrusage(RUSAGE_CHILDREN) until it
// is reaped; the snapshots must count it while it runs, and must not
// count it twice once it has been reaped.
func TestChildCPUAccounting(t *testing.T) {
	c0 := takeCPU()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "PERFBENCH_CHILD=burn")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	pid := cmd.Process.Pid
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := procStat(pid)
		if ok && st.cpu >= 300*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child %d never used 300ms of CPU", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}

	live := takeCPU()
	// getrusage alone misses the running child's 300ms.
	if d := live.reaped - c0.reaped; d > 100*time.Millisecond {
		t.Errorf("RUSAGE_CHILDREN moved by %v before the child was reaped", d)
	}
	if _, ok := live.live[pid]; !ok {
		t.Fatalf("live snapshot does not list child %d: %v", pid, live.live)
	}
	if d := live.childCPUSince(c0); d < 250*time.Millisecond {
		t.Errorf("live child counted as %v of CPU, want at least 250ms", d)
	}
	if live.childPeakRSS(1) <= 0 {
		t.Errorf("live child has no peak RSS")
	}
	if d := live.cpuSince(c0); d < live.childCPUSince(c0) {
		t.Errorf("total CPU %v is below the children's %v", d, live.childCPUSince(c0))
	}

	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	done := takeCPU()
	if _, ok := done.live[pid]; ok {
		t.Errorf("reaped child %d still listed live", pid)
	}
	whole := done.childCPUSince(c0)
	if whole < 250*time.Millisecond {
		t.Errorf("reaped child counted as %v of CPU, want at least 250ms", whole)
	}
	// From the live snapshot on, the child only idled and exited: its
	// burn, now inside RUSAGE_CHILDREN, must not be counted again.
	if after := done.childCPUSince(live); after < 0 || after > 100*time.Millisecond {
		t.Errorf("child CPU between the live snapshot and the reap = %v, want about 0", after)
	}
	if done.childPeakRSS(1) <= 0 {
		t.Errorf("reaped child's peak RSS lost")
	}
}
