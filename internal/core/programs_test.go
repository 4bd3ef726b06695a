package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/aes"
	"repro/internal/glitch"
	"repro/internal/kernel"
	"repro/internal/soc"
	"repro/internal/trace"
)

// programWordsPins is the SHA-256 of the little-endian machine words
// each program builder emits, with the arguments the experiments use.
// The figures compare cache dumps against exactly these words, so a
// toolchain change that moves any of them moves a result.
var programWordsPins = map[string]string{
	"cache-dump/BCM2711+tags": "52310bb5c2b67d97432609dcd293a14b4dd42347f0aed40acf518482f077f01d",
	"cache-dump/BCM2711":      "20e708e63f5e7e350df357519fbfe87950d78b0f4f335a09cf956c570846bb1f",
	"cache-dump/BCM2837+tags": "f50c4c6c8642ef31e90435077d94dded517bf0d78ec43ae6e5b75393b55e7d90",
	"cache-dump/BCM2837":      "9389d33e2a57ee710aaf7f6db6b114a918c27fbd69f0f0b7e7ff21c1f34cb309",
	"cache-dump/CM4F-64+tags": "cc16295e2832a367f46cf3fa7752715defea204ad16548fc1a5996fc51717667",
	"cache-dump/CM4F-64":      "b1c4d41e78bd4bf8e9909d6911c5484c7288481a075c05e88ada4266fed6fe88",
	"cache-dump/i.MX535+tags": "75684f089d2f4952985b7b033daf5c9c690bfd9156aa209b4675a631c365b673",
	"cache-dump/i.MX535":      "d1d964b337ab74e8e79d4b0b1691ca95866407d6463a7b232ff1dfd3af7a4c79",
	"glitch/boot-rom":         "d779e7ebfbc719a7393ced27b9d64a5939963f8b77d30eb5c0cd6ce1f69f61ac",
	"glitch/demo-image":       "f19e9093bb8f90fd89f26978f5cf70d56dda1e38b835b0df7d63274d4a7cb81e",
	"kernel/array-benchmark":  "15145992e75034fe9f233a1b4502b2ab9d7c0c172e407bd3745aecd3c2ec1e0c",
	"kernel/pattern-fill":     "38256ac89df0c1c74530c93033c4da4316c7956ae8109453da4c1f30a3cd8f5b",
	"nop-fill/BCM2711":        "0985f1e1378f7e4993bdcbf9d13d6bfa2d2ebcc671426cfd7db1e81182ac36ca",
	"nop-fill/BCM2837":        "b2e4fc585fb64b7f16e9fc0501335e14a4bc6c1f8d05dc4917cefc258c0cc985",
	"nop-fill/CM4F-64":        "fb7c3a2b7b23edf38dfe646c5c1207328eb36420f596348d60bd693bda562d79",
	"nop-fill/i.MX535":        "b2e4fc585fb64b7f16e9fc0501335e14a4bc6c1f8d05dc4917cefc258c0cc985",
	"pattern-fill/0x5a":       "9eaa7727fab50cee90c7cff4ae59a3beb5698ba8d4bcdcedf3da3512bbae82a2",
	"pattern-fill/0xa5":       "a705e13c187f12845d6cae653f473a9bca9ad48971a8e60b767a77a5bd4d4847",
	"register-dump":           "d68d962e80bde32275fcf841bf737344801361ed3871bb72afaffbeca1add4b8",
	"tlb-dump":                "fcd824708e35b252860aa4675fd2e67ef4eed79a1027d65ea7fc3a3e3403d2b7",
	"trace/aes-victim":        "3c2cce8a488e622e5b94858fceeeb4a756283127bc30b26e51941a2018e3795e",
	"vector-fill":             "00c34aba130755779608c21fbf68640b9c15e33ff8557f1b4354758e331cf66c",
	"vector-key":              "a0c989bda69c72bffd29920fb372b8463373982e1032eb6f87715465e6dd2b99",
}

// programWords builds every program the pins cover.
func programWords(t *testing.T) map[string][]uint32 {
	t.Helper()
	out := map[string][]uint32{}
	add := func(name string, words []uint32, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = words
	}
	image := func(img *soc.BootImage, err error) ([]uint32, error) {
		if err != nil {
			return nil, err
		}
		return img.Words, nil
	}
	for _, spec := range append(soc.Catalog(), soc.GenericMCU()) {
		for _, tags := range []bool{false, true} {
			name := "cache-dump/" + spec.SoCName
			if tags {
				name += "+tags"
			}
			img, _, err := cacheDumpPayload(spec, tags)
			w, err := image(img, err)
			add(name, w, err)
		}
		img, _, err := VictimNOPFillImage(spec)
		w, err := image(img, err)
		add("nop-fill/"+spec.SoCName, w, err)
	}
	w, err := image(RegisterDumpPayload())
	add("register-dump", w, err)
	w, err = image(TLBDumpPayload())
	add("tlb-dump", w, err)
	w, err = image(VictimPatternFillImage(0x100000, 2048, 0x5A))
	add("pattern-fill/0x5a", w, err)
	w, err = image(VictimPatternFillImage(0x100000, 4096, 0xA5))
	add("pattern-fill/0xa5", w, err)
	w, err = image(VictimVectorFillImage())
	add("vector-fill", w, err)
	sched, err := aes.ExpandKey128([]byte("on-chip AES key!"))
	if err != nil {
		t.Fatal(err)
	}
	var rks [][]byte
	for r := 0; r <= 10; r++ {
		rks = append(rks, aes.RoundKey(sched, r))
	}
	w, err = image(VictimVectorKeyImage(rks))
	add("vector-key", w, err)

	w, err = kernel.ArrayBenchmarkProgram(soc.PayloadBase, 0x100000, 512, 30)
	add("kernel/array-benchmark", w, err)
	w, err = kernel.PatternFillProgram(soc.PayloadBase, 0x100000, 2048, 0xAA)
	add("kernel/pattern-fill", w, err)

	demo, err := glitch.BuildDemoImage(0x100000, 0x4800)
	add("glitch/demo-image", demo, err)
	rom, err := glitch.BuildBootROM(soc.ROMBase, demo, 0x100000, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	add("glitch/boot-rom", rom.Words, nil)

	v, err := trace.BuildAESVictim(soc.PayloadBase, 0x40000, 0x41000, 0x42000, 0x43000, 10)
	if err != nil {
		t.Fatal(err)
	}
	add("trace/aes-victim", v.Words, nil)
	return out
}

// TestProgramWordsPinned pins the words of every program builder: core's
// extraction payloads and victim images, kernel's programs, glitch's boot
// ROM and demo image and trace's AES victim. The assembler, the encoder
// and the builders' sources all feed these words.
func TestProgramWordsPinned(t *testing.T) {
	got := programWords(t)
	for name := range programWordsPins {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not built", name)
		}
	}
	for name, words := range got {
		buf := make([]byte, 4*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
		sum := sha256.Sum256(buf)
		if h := hex.EncodeToString(sum[:]); h != programWordsPins[name] {
			t.Errorf("%s: %d words hash to %s, pinned %s", name, len(words), h, programWordsPins[name])
		}
	}
}
