// Package pty allocates and configures pseudo-terminals, the device layer
// that lets expect control programs which insist on a terminal (§2.1 of the
// paper). Ptys are what solve both of the paper's shell problems: they give
// a two-way channel with terminal semantics, and a program that opens
// /dev/tty to bypass redirection ends up talking to its pty — that is, to
// the expect engine.
//
// The implementation speaks directly to /dev/ptmx with the Unix98 ioctls;
// there are no dependencies beyond the standard library.
package pty

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// Pty is an allocated pseudo-terminal pair. Master is held by the
// controlling (expect) side; SlavePath names the device the spawned child
// opens as its controlling terminal.
type Pty struct {
	Master    *os.File
	SlavePath string
}

const (
	ioctlTIOCGPTN   = 0x80045430 // get pty number
	ioctlTIOCSPTLCK = 0x40045431 // lock/unlock slave
	ioctlTIOCSWINSZ = 0x5414
	ioctlTIOCGWINSZ = 0x5413
	ioctlTCGETS     = 0x5401
	ioctlTCSETS     = 0x5402
)

// Open allocates a new pty pair via /dev/ptmx.
func Open() (*Pty, error) {
	master, err := os.OpenFile("/dev/ptmx", os.O_RDWR|syscall.O_NOCTTY, 0)
	if err != nil {
		return nil, fmt.Errorf("pty: open /dev/ptmx: %w", err)
	}
	var n uint32
	if err := ioctl(master, ioctlTIOCGPTN, unsafe.Pointer(&n)); err != nil {
		master.Close()
		return nil, fmt.Errorf("pty: TIOCGPTN: %w", err)
	}
	var unlock int32 // 0 unlocks
	if err := ioctl(master, ioctlTIOCSPTLCK, unsafe.Pointer(&unlock)); err != nil {
		master.Close()
		return nil, fmt.Errorf("pty: TIOCSPTLCK: %w", err)
	}
	return &Pty{Master: master, SlavePath: fmt.Sprintf("/dev/pts/%d", n)}, nil
}

// OpenSlave opens the slave side. The child process receives this file as
// its stdin, stdout, and stderr — the paper's overloading of stderr onto
// the stdout path falls out of all three sharing one terminal.
func (p *Pty) OpenSlave() (*os.File, error) {
	f, err := os.OpenFile(p.SlavePath, os.O_RDWR|syscall.O_NOCTTY, 0)
	if err != nil {
		return nil, fmt.Errorf("pty: open slave %s: %w", p.SlavePath, err)
	}
	return f, nil
}

// Close releases the master, which hangs up the slave — also while
// another goroutine is blocked reading the master.
func (p *Pty) Close() error { return p.Master.Close() }

// ioctl issues one ioctl on f's descriptor through SyscallConn. f.Fd()
// would switch the file to blocking mode for good, after which Close can
// no longer interrupt a Read in progress: the descriptor would stay open
// until that Read returned, and closing a master would never hang up the
// child behind it.
func ioctl(f *os.File, req uintptr, arg unsafe.Pointer) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall(syscall.SYS_IOCTL, fd, req, uintptr(arg))
	}); err != nil {
		return err
	}
	if errno != 0 {
		return errno
	}
	return nil
}

// Winsize is the terminal dimensions structure.
type Winsize struct {
	Rows, Cols, X, Y uint16
}

// SetWinsize sets the terminal size on f (typically the master). Programs
// like the paper's rogue read this to lay out their screen.
func SetWinsize(f *os.File, rows, cols uint16) error {
	ws := Winsize{Rows: rows, Cols: cols}
	return ioctl(f, ioctlTIOCSWINSZ, unsafe.Pointer(&ws))
}

// GetWinsize reads the terminal size from f.
func GetWinsize(f *os.File) (Winsize, error) {
	var ws Winsize
	err := ioctl(f, ioctlTIOCGWINSZ, unsafe.Pointer(&ws))
	return ws, err
}

// Termios is the kernel terminal attribute structure (struct termios).
type Termios struct {
	Iflag, Oflag, Cflag, Lflag uint32
	Line                       uint8
	Cc                         [19]uint8
	Ispeed, Ospeed             uint32
}

// Terminal attribute bits used below (from <termios.h>).
const (
	flagICANON = 0x2
	flagECHO   = 0x8
	flagISIG   = 0x1
	flagIXON   = 0x400
	flagICRNL  = 0x100
	flagOPOST  = 0x1
	flagONLCR  = 0x4
	ccVMIN     = 6
	ccVTIME    = 5
)

// GetAttr reads terminal attributes from f.
func GetAttr(f *os.File) (*Termios, error) {
	t := &Termios{}
	if err := ioctl(f, ioctlTCGETS, unsafe.Pointer(t)); err != nil {
		return nil, fmt.Errorf("pty: TCGETS: %w", err)
	}
	return t, nil
}

// SetAttr writes terminal attributes to f.
func SetAttr(f *os.File, t *Termios) error {
	if err := ioctl(f, ioctlTCSETS, unsafe.Pointer(t)); err != nil {
		return fmt.Errorf("pty: TCSETS: %w", err)
	}
	return nil
}

// MakeRaw puts f into raw mode — no echo, no canonical line editing, no
// signal generation — and returns a restore function. interact uses this on
// the user's tty so every keystroke (including job control characters,
// §7.3) passes straight through to the current process.
func MakeRaw(f *os.File) (restore func() error, err error) {
	old, err := GetAttr(f)
	if err != nil {
		return nil, err
	}
	raw := *old
	raw.Lflag &^= flagICANON | flagECHO | flagISIG
	raw.Iflag &^= flagIXON | flagICRNL
	raw.Oflag &^= flagOPOST
	raw.Cc[ccVMIN] = 1
	raw.Cc[ccVTIME] = 0
	if err := SetAttr(f, &raw); err != nil {
		return nil, err
	}
	return func() error { return SetAttr(f, old) }, nil
}

// SetEcho switches terminal echo on or off. The passwd simulator uses this
// to suppress password echo, exactly like the real program.
func SetEcho(f *os.File, on bool) error {
	t, err := GetAttr(f)
	if err != nil {
		return err
	}
	if on {
		t.Lflag |= flagECHO
	} else {
		t.Lflag &^= flagECHO
	}
	return SetAttr(f, t)
}

// DisableOutputProcessing turns off ONLCR on the slave so a child's "\n"
// arrives at the master as "\n" rather than "\r\n". Spawn leaves processing
// on by default (faithful to real ptys); tests that want exact bytes can
// turn it off.
func DisableOutputProcessing(f *os.File) error {
	t, err := GetAttr(f)
	if err != nil {
		return err
	}
	t.Oflag &^= flagONLCR | flagOPOST
	return SetAttr(f, t)
}

// IsTerminal reports whether f refers to a terminal device.
func IsTerminal(f *os.File) bool {
	_, err := GetAttr(f)
	return err == nil
}
