package models

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"

	"hawccc/internal/geom"
	"hawccc/internal/projection"
	"hawccc/internal/upsample"
)

// HAWC model file format (stdlib-only binary):
//
//	magic    [4]byte "HWCM"
//	version  uint16
//	projLen  uint32, projector name bytes
//	target   uint32 (N′max)
//	sigma    float64 (GaussianSigma)
//	poolN    uint32, then poolN clouds (uint32 count + points as 3×float32)
//	weights  (nn.Sequential.Save payload)

var hawcMagic = [4]byte{'H', 'W', 'C', 'M'}

const hawcFormatVersion = 1

// Save serializes the trained HAWC — projector identity, up-sampling
// configuration, object pool, and network weights — so a deployment can
// reload it without retraining.
func (h *HAWC) Save(w io.Writer) error {
	if h.net == nil {
		return fmt.Errorf("models: saving untrained HAWC")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hawcMagic[:]); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	name := h.Projector.Name()
	if err := binary.Write(bw, binary.LittleEndian, uint16(hawcFormatVersion)); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	if _, err := bw.WriteString(name); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(h.target)); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(h.GaussianSigma)); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	var clouds []geom.Cloud
	if h.pool != nil {
		clouds = h.pool.Clouds()
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(clouds))); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	for _, c := range clouds {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(c))); err != nil {
			return fmt.Errorf("models: save: %w", err)
		}
		for _, p := range c {
			for _, v := range [3]float32{float32(p.X), float32(p.Y), float32(p.Z)} {
				if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
					return fmt.Errorf("models: save: %w", err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	return h.net.Save(w)
}

// ModelVersion returns a stable fingerprint of the trained model — an
// FNV-1a hash over the exact bytes Save would write (projector, pool,
// weights), folded to 32 bits for the wire's model-version fields. Two
// HAWCs trained identically (same data, same seed) agree; any weight
// change disagrees. An untrained model returns 0 ("unversioned").
// Hashing re-serializes the model, so callers stamping many poles
// should compute it once and reuse the value.
func (h *HAWC) ModelVersion() uint32 {
	if h.net == nil {
		return 0
	}
	f := fnv.New64a()
	if err := h.Save(f); err != nil {
		return 0
	}
	v := f.Sum64()
	folded := uint32(v>>32) ^ uint32(v)
	if folded == 0 {
		folded = 1 // zero is reserved for "unversioned"
	}
	return folded
}

// LoadHAWC reconstructs a trained HAWC written by Save.
func LoadHAWC(r io.Reader) (*HAWC, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	if m != hawcMagic {
		return nil, fmt.Errorf("models: bad HAWC magic %q", m)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	if version != hawcFormatVersion {
		return nil, fmt.Errorf("models: unsupported HAWC version %d", version)
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	if nameLen > 64 {
		return nil, fmt.Errorf("models: projector name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	proj, ok := projection.ByName(string(nameBytes))
	if !ok {
		return nil, fmt.Errorf("models: unknown projector %q", nameBytes)
	}
	var target uint32
	if err := binary.Read(br, binary.LittleEndian, &target); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	var sigmaBits uint64
	if err := binary.Read(br, binary.LittleEndian, &sigmaBits); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	var poolN uint32
	if err := binary.Read(br, binary.LittleEndian, &poolN); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	const maxClouds = 10_000_000
	if poolN > maxClouds {
		return nil, fmt.Errorf("models: pool size %d exceeds sanity bound", poolN)
	}
	clouds := make([]geom.Cloud, 0, poolN)
	for i := uint32(0); i < poolN; i++ {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("models: load: %w", err)
		}
		if n > maxClouds {
			return nil, fmt.Errorf("models: cloud size %d exceeds sanity bound", n)
		}
		c := make(geom.Cloud, n)
		var buf [12]byte
		for j := range c {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, fmt.Errorf("models: load: %w", err)
			}
			c[j] = geom.P(
				float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[0:]))),
				float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4:]))),
				float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[8:]))),
			)
		}
		clouds = append(clouds, c)
	}

	h := &HAWC{
		Projector:     proj,
		GaussianSigma: math.Float64frombits(sigmaBits),
		target:        int(target),
		d:             upsample.Side(int(target)),
		pool:          upsample.NewPool(clouds),
	}
	h.net = buildHAWCNet(h.d, proj.Channels(), rand.New(rand.NewSource(0)))
	if err := h.net.Load(br); err != nil {
		return nil, fmt.Errorf("models: load weights: %w", err)
	}
	return h, nil
}

// SaveHAWCFile writes the model to path.
func SaveHAWCFile(path string, h *HAWC) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("models: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("models: close: %w", cerr)
		}
	}()
	return h.Save(f)
}

// LoadHAWCFile reads a model from path.
func LoadHAWCFile(path string) (*HAWC, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	defer f.Close()
	return LoadHAWC(f)
}
