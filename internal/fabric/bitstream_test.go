package fabric

// Reference forms of the configuration data that Load and WireBytes only
// count: the bitstream bytes themselves and their RLE encoding. The tests
// compare the counted sizes against these.

// BitstreamFor builds walkBitstream's bytes for a placement.
func (f *Fabric) BitstreamFor(p *Placement, density float64) []byte {
	out := make([]byte, p.Area()*f.cfg.BytesPerRegion)
	i := 0
	f.walkBitstream(p, density, func(v byte, n int) {
		for ; n > 0; n-- {
			out[i] = v
			i++
		}
	})
	return out
}

// CompressRLE run-length encodes data as (count, value) byte pairs with
// runs up to 255.
func CompressRLE(data []byte) []byte {
	out := make([]byte, 0, len(data)/2)
	i := 0
	for i < len(data) {
		v := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == v && run < 255 {
			run++
		}
		out = append(out, byte(run), v)
		i += run
	}
	return out
}

// DecompressRLE reverses CompressRLE. It panics on malformed input (odd
// length), which can only arise from corruption.
func DecompressRLE(data []byte) []byte {
	if len(data)%2 != 0 {
		panic("fabric: corrupt RLE stream")
	}
	var out []byte
	for i := 0; i < len(data); i += 2 {
		run := int(data[i])
		v := data[i+1]
		for j := 0; j < run; j++ {
			out = append(out, v)
		}
	}
	return out
}
