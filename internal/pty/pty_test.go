package pty

import (
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/testutil"
)

func openPair(t *testing.T) (*Pty, *os.File) {
	t.Helper()
	// Gate on the capability explicitly: once /dev/ptmx exists, an Open
	// failure is a bug to report, not an environment quirk to skip.
	testutil.RequirePty(t)
	p, err := Open()
	if err != nil {
		t.Fatalf("pty open: %v", err)
	}
	slave, err := p.OpenSlave()
	if err != nil {
		p.Close()
		t.Fatalf("open slave: %v", err)
	}
	t.Cleanup(func() { slave.Close(); p.Close() })
	return p, slave
}

func TestOpenAllocatesSlavePath(t *testing.T) {
	p, _ := openPair(t)
	if !strings.HasPrefix(p.SlavePath, "/dev/pts/") {
		t.Errorf("slave path %q", p.SlavePath)
	}
}

func TestDataFlowsBothWays(t *testing.T) {
	p, slave := openPair(t)
	if err := DisableOutputProcessing(slave); err != nil {
		t.Fatal(err)
	}
	if err := SetEcho(slave, false); err != nil {
		t.Fatal(err)
	}
	// Slave → master.
	if _, err := slave.WriteString("from-slave\n"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := p.Master.Read(buf)
	if err != nil || !strings.Contains(string(buf[:n]), "from-slave") {
		t.Fatalf("master read %q, %v", buf[:n], err)
	}
	// Master → slave (needs newline: slave is canonical by default).
	if _, err := p.Master.WriteString("to-slave\n"); err != nil {
		t.Fatal(err)
	}
	n, err = slave.Read(buf)
	if err != nil || !strings.Contains(string(buf[:n]), "to-slave") {
		t.Fatalf("slave read %q, %v", buf[:n], err)
	}
}

func TestWinsizeRoundTrip(t *testing.T) {
	p, _ := openPair(t)
	if err := SetWinsize(p.Master, 42, 132); err != nil {
		t.Fatal(err)
	}
	ws, err := GetWinsize(p.Master)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Rows != 42 || ws.Cols != 132 {
		t.Errorf("winsize = %dx%d, want 42x132", ws.Rows, ws.Cols)
	}
}

func TestEchoToggle(t *testing.T) {
	_, slave := openPair(t)
	if err := SetEcho(slave, false); err != nil {
		t.Fatal(err)
	}
	attr, err := GetAttr(slave)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Lflag&flagECHO != 0 {
		t.Error("echo still on after SetEcho(false)")
	}
	if err := SetEcho(slave, true); err != nil {
		t.Fatal(err)
	}
	attr, _ = GetAttr(slave)
	if attr.Lflag&flagECHO == 0 {
		t.Error("echo off after SetEcho(true)")
	}
}

func TestMakeRawAndRestore(t *testing.T) {
	_, slave := openPair(t)
	before, err := GetAttr(slave)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := MakeRaw(slave)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := GetAttr(slave)
	if raw.Lflag&flagICANON != 0 || raw.Lflag&flagECHO != 0 {
		t.Error("raw mode left canonical/echo bits set")
	}
	if err := restore(); err != nil {
		t.Fatal(err)
	}
	after, _ := GetAttr(slave)
	if after.Lflag != before.Lflag {
		t.Errorf("restore mismatch: %x vs %x", after.Lflag, before.Lflag)
	}
}

func TestIsTerminal(t *testing.T) {
	p, slave := openPair(t)
	if !IsTerminal(slave) || !IsTerminal(p.Master) {
		t.Error("pty endpoints not recognized as terminals")
	}
	f, err := os.Open("/dev/null")
	if err == nil {
		defer f.Close()
		if IsTerminal(f) {
			t.Error("/dev/null claimed to be a terminal")
		}
	}
}

func TestEchoIsTheDefault(t *testing.T) {
	// Fresh slaves echo — the behaviour expect scripts see: what you send
	// comes back interleaved with the program's output.
	_, slave := openPair(t)
	attr, err := GetAttr(slave)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Lflag&flagECHO == 0 {
		t.Error("fresh pty slave does not echo")
	}
}

// TestCloseHangsUpChildUnderPendingRead closes a master while another
// goroutine is parked in Read on it, as a session pump always is: the
// close must still release the descriptor and hang up the child, which
// then dies of SIGHUP instead of running on.
func TestCloseHangsUpChildUnderPendingRead(t *testing.T) {
	testutil.RequireCmd(t, "sleep")
	p, slave := openPair(t)
	cmd := exec.Command("sleep", "60")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = slave, slave, slave
	cmd.SysProcAttr = &syscall.SysProcAttr{Setsid: true, Setctty: true, Ctty: 0}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	slave.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := p.Master.Read(buf); err != nil {
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the reader park
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("child still running 5s after its pty master was closed")
	}
}
