package wire

import "testing"

// Micro-benchmarks for the wire layer's hot paths (`make bench-micro`).

func benchEnvelope() Envelope {
	return Envelope{From: "c1", To: "edge-1", Msg: &AddResponse{BID: 12, Block: sampleBlock(), EdgeSig: randBytes(64)}}
}

func BenchmarkEncodeEnvelope(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeEnvelope(env)
	}
}

func BenchmarkAppendEnvelopePooled(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		AppendEnvelope(e, env)
		PutEncoder(e)
	}
}

func BenchmarkDecodeEnvelope(b *testing.B) {
	buf := EncodeEnvelope(benchEnvelope())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEnvelopeOwned(b *testing.B) {
	buf := EncodeEnvelope(benchEnvelope())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelopeOwned(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopeEncodedSize(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodedSize(env)
	}
}

func BenchmarkBlockCanonicalUnfrozen(b *testing.B) {
	blk := sampleBlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Canonical()
	}
}

func BenchmarkBlockCanonicalFrozen(b *testing.B) {
	blk := sampleBlock()
	blk.Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Canonical()
	}
}
