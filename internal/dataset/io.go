package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary file format for data files:
//
//	magic   [4]byte  "SELD"
//	version uint16   1
//	p       uint16
//	nameLen uint16, name []byte
//	descLen uint16, desc []byte
//	count   uint64
//	records [count]float64 (little endian)
//
// The format exists so generated files can be inspected, shipped to other
// tools, and reloaded without regenerating; the paper published its files
// the same way.

var fileMagic = [4]byte{'S', 'E', 'L', 'D'}

const fileVersion = 1

// Save writes the file in the selest binary format.
func (f *File) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return fmt.Errorf("dataset: write magic: %w", err)
	}
	if len(f.Name) > math.MaxUint16 || len(f.Description) > math.MaxUint16 {
		return fmt.Errorf("dataset: name/description too long")
	}
	hdr := []any{
		uint16(fileVersion),
		uint16(f.P),
		uint16(len(f.Name)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dataset: write header: %w", err)
		}
	}
	if _, err := bw.WriteString(f.Name); err != nil {
		return fmt.Errorf("dataset: write name: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(f.Description))); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	if _, err := bw.WriteString(f.Description); err != nil {
		return fmt.Errorf("dataset: write description: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(f.Records))); err != nil {
		return fmt.Errorf("dataset: write count: %w", err)
	}
	if err := WriteFloats(bw, f.Records); err != nil {
		return fmt.Errorf("dataset: write records: %w", err)
	}
	return bw.Flush()
}

// Load reads a file in the selest binary format. The Truth field cannot be
// serialised and is nil after loading.
func Load(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: read magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	var version, p, nameLen uint16
	for _, dst := range []*uint16{&version, &p, &nameLen} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("dataset: read header: %w", err)
		}
	}
	if version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", version)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("dataset: read name: %w", err)
	}
	var descLen uint16
	if err := binary.Read(br, binary.LittleEndian, &descLen); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	desc := make([]byte, descLen)
	if _, err := io.ReadFull(br, desc); err != nil {
		return nil, fmt.Errorf("dataset: read description: %w", err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("dataset: read count: %w", err)
	}
	records, err := ReadFloats(br, count)
	if err != nil {
		return nil, fmt.Errorf("dataset: read records: %w", err)
	}
	return &File{
		Name:        string(name),
		Description: string(desc),
		P:           int(p),
		Records:     records,
	}, nil
}

// SaveFile writes the data file to path.
func (f *File) SaveFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer out.Close()
	if err := f.Save(out); err != nil {
		return err
	}
	return out.Close()
}

// LoadFile reads a data file from path.
func LoadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer in.Close()
	return Load(in)
}
