//go:build unix

package rescache

import "syscall"

// readBlob reads the file at path into buf, growing it only for a file
// larger than buf's capacity. A blob fits the caller's buffer, so a read
// costs one open, one read and one close: os.ReadFile adds a stat, a
// second read to see the end of the file, and the runtime poller's
// registration of the descriptor, which together cost more than the
// read itself. A short read ends the file: a regular file returns fewer
// bytes than asked only at its end. Were a read ever cut short anyway,
// the truncated blob would fail to decode and count as a corrupt miss,
// never as a wrong hit.
func readBlob(path string, buf []byte) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		want := cap(buf) - len(buf)
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			syscall.Close(fd)
			return nil, err
		}
		buf = buf[:len(buf)+n]
		if n < want {
			break
		}
	}
	syscall.Close(fd)
	return buf, nil
}
