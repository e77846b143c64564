package vdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
)

// FileDisk is a Disk-shaped virtual disk backed by an ordinary file,
// so a block server survives daemon restarts. The file starts with a
// small superblock recording the geometry; block n lives at
// headerSize + n*blockSize. Writes go straight through (a 1986 disk
// had no volatile cache worth modelling); Sync is provided for
// explicit durability points.
type FileDisk struct {
	blockSize int
	nblocks   uint32

	mu    sync.Mutex
	f     *os.File
	fault FaultFunc
	stats Stats
}

// Store is the common interface of Disk and FileDisk; the block server
// and the write-ahead log accept either.
type Store interface {
	BlockSize() int
	NBlocks() uint32
	Read(n uint32) ([]byte, error)
	// ReadInto reads block n into dst (exactly one block): the
	// allocation-free path under batched reads.
	ReadInto(n uint32, dst []byte) error
	// Write replaces block n with data (exactly one block). It keeps
	// no reference to data: the block server hands it request frames
	// and pooled scratch that are reused once Write returns.
	Write(n uint32, data []byte) error
	Zero(n uint32) error
	// Sync forces every completed write onto stable storage before
	// returning — the durability point the write-ahead log builds its
	// group commit on. A no-op on the memory disk.
	Sync() error
	Stats() Stats
}

var (
	_ Store = (*Disk)(nil)
	_ Store = (*FileDisk)(nil)
)

const (
	fileMagic  = 0xA0EBAD15C0000001
	headerSize = 16 // magic(8) nblocks(4) blockSize(4)
)

// ErrGeometryMismatch is returned when opening an existing disk file
// whose recorded geometry differs from the requested one.
var ErrGeometryMismatch = errors.New("vdisk: existing file has different geometry")

// OpenFile opens (creating if absent) a file-backed disk at path with
// the given geometry. Reopening an existing file checks the recorded
// geometry and preserves all block contents.
func OpenFile(path string, nblocks uint32, blockSize int) (*FileDisk, error) {
	if nblocks == 0 || blockSize <= 0 {
		return nil, fmt.Errorf("vdisk: bad geometry %d×%d", nblocks, blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("vdisk: open %s: %w", path, err)
	}
	d := &FileDisk{blockSize: blockSize, nblocks: nblocks, f: f}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("vdisk: stat %s: %w", path, err)
	}
	if info.Size() == 0 {
		if err := d.format(); err != nil {
			f.Close()
			return nil, err
		}
		return d, nil
	}
	if err := d.checkHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func (d *FileDisk) format() error {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint64(hdr[0:], fileMagic)
	binary.BigEndian.PutUint32(hdr[8:], d.nblocks)
	binary.BigEndian.PutUint32(hdr[12:], uint32(d.blockSize))
	if _, err := d.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("vdisk: writing superblock: %w", err)
	}
	// Extend to full size so later reads of untouched blocks see zeros.
	end := int64(headerSize) + int64(d.nblocks)*int64(d.blockSize)
	if err := d.f.Truncate(end); err != nil {
		return fmt.Errorf("vdisk: sizing disk file: %w", err)
	}
	return nil
}

func (d *FileDisk) checkHeader() error {
	var hdr [headerSize]byte
	if _, err := d.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("vdisk: reading superblock: %w", err)
	}
	if binary.BigEndian.Uint64(hdr[0:]) != fileMagic {
		return errors.New("vdisk: not a disk file (bad magic)")
	}
	gotBlocks := binary.BigEndian.Uint32(hdr[8:])
	gotSize := int(binary.BigEndian.Uint32(hdr[12:]))
	if gotBlocks != d.nblocks || gotSize != d.blockSize {
		return fmt.Errorf("%w: file has %d×%d, want %d×%d",
			ErrGeometryMismatch, gotBlocks, gotSize, d.nblocks, d.blockSize)
	}
	return nil
}

// BlockSize implements Store.
func (d *FileDisk) BlockSize() int { return d.blockSize }

// NBlocks implements Store.
func (d *FileDisk) NBlocks() uint32 { return d.nblocks }

// SetFault installs (or clears) the fault-injection hook.
func (d *FileDisk) SetFault(f FaultFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = f
}

func (d *FileDisk) offset(n uint32) int64 {
	return int64(headerSize) + int64(n)*int64(d.blockSize)
}

// Read implements Store.
func (d *FileDisk) Read(n uint32) ([]byte, error) {
	buf := make([]byte, d.blockSize)
	if err := d.ReadInto(n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto implements Store: the file read lands directly in dst.
func (d *FileDisk) ReadInto(n uint32, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n >= d.nblocks {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, n, d.nblocks)
	}
	if len(dst) != d.blockSize {
		return fmt.Errorf("%w: got %d bytes, block is %d", ErrBadSize, len(dst), d.blockSize)
	}
	if d.fault != nil {
		if err := d.fault("read", n); err != nil {
			return err
		}
	}
	if _, err := d.f.ReadAt(dst, d.offset(n)); err != nil {
		return fmt.Errorf("vdisk: reading block %d: %w", n, err)
	}
	d.stats.Reads++
	return nil
}

// Write implements Store.
func (d *FileDisk) Write(n uint32, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n >= d.nblocks {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, n, d.nblocks)
	}
	if len(data) != d.blockSize {
		return fmt.Errorf("%w: got %d bytes, block is %d", ErrBadSize, len(data), d.blockSize)
	}
	if d.fault != nil {
		if err := d.fault("write", n); err != nil {
			return err
		}
	}
	if _, err := d.f.WriteAt(data, d.offset(n)); err != nil {
		return fmt.Errorf("vdisk: writing block %d: %w", n, err)
	}
	d.stats.Writes++
	return nil
}

// Zero implements Store.
func (d *FileDisk) Zero(n uint32) error {
	return d.Write(n, make([]byte, d.blockSize))
}

// Stats implements Store.
func (d *FileDisk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Sync implements Store: an fsync of the backing file.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Syncs++
	return d.f.Sync()
}

// Close syncs and closes the backing file.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

// openRW opens an existing file read-write (test helper kept here to
// avoid exporting os details from the tests).
func openRW(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0o600)
}
