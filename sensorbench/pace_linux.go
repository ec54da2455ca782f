package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits on a Linux timerfd. The feeding goroutine parks in the
// runtime's poller, so it holds no processor while it waits, and wakes at
// the kernel timer's precision. time.Sleep measured about 1 ms of
// overshoot on the reference host; polling the clock instead holds a
// processor, which left the gateway one and put millisecond tails on its
// latency whenever the host was busy.
type pacer struct {
	fd  uintptr // kept apart: os.File.Fd would switch the file to blocking
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// wait returns after d has passed.
func (p *pacer) wait(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
