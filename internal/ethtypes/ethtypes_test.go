package ethtypes

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestBytesToAddressPadding(t *testing.T) {
	a := BytesToAddress([]byte{0x01, 0x02})
	if a[18] != 0x01 || a[19] != 0x02 {
		t.Errorf("short input not right-aligned: %x", a)
	}
	for i := 0; i < 18; i++ {
		if a[i] != 0 {
			t.Errorf("byte %d not zero-padded", i)
		}
	}
	long := make([]byte, 32)
	long[31] = 0xff
	b := BytesToAddress(long)
	if b[19] != 0xff {
		t.Errorf("long input not truncated from the left: %x", b)
	}
}

func TestEIP55Checksum(t *testing.T) {
	// Canonical test vectors from EIP-55.
	vectors := []string{
		"0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
		"0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
		"0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
		"0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
	}
	for _, v := range vectors {
		a, err := ParseAddress(v)
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", v, err)
		}
		if got := a.Hex(); got != v {
			t.Errorf("Hex() = %s, want %s", got, v)
		}
		if !VerifyChecksum(v) {
			t.Errorf("VerifyChecksum(%q) = false", v)
		}
	}
}

func TestVerifyChecksumRejectsBadCase(t *testing.T) {
	// Flip the case of one letter in a valid checksummed address.
	bad := "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAeD"
	if VerifyChecksum(bad) {
		t.Error("VerifyChecksum accepted a corrupted checksum")
	}
	// All-lowercase is always accepted.
	if !VerifyChecksum(strings.ToLower(bad)) {
		t.Error("VerifyChecksum rejected all-lowercase form")
	}
}

func TestParseAddressErrors(t *testing.T) {
	cases := []string{"", "0x", "0x123", "0xzz", strings.Repeat("a", 41)}
	for _, c := range cases {
		if _, err := ParseAddress(c); err == nil {
			t.Errorf("ParseAddress(%q) succeeded, want error", c)
		}
	}
}

func TestDeriveAddressDeterministic(t *testing.T) {
	a1 := DeriveAddress("owner-001")
	a2 := DeriveAddress("owner-001")
	b := DeriveAddress("owner-002")
	if a1 != a2 {
		t.Error("DeriveAddress not deterministic")
	}
	if a1 == b {
		t.Error("distinct labels produced the same address")
	}
	if a1.IsZero() {
		t.Error("derived address is zero")
	}
}

func TestAddressJSONRoundTrip(t *testing.T) {
	a := DeriveAddress("json-test")
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Address
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Errorf("round trip mismatch: %s vs %s", back, a)
	}
}

func TestHashJSONRoundTrip(t *testing.T) {
	h := HashData([]byte("gold.eth"))
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hash
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("round trip mismatch: %s vs %s", back, h)
	}
}

func TestQuickAddressTextRoundTrip(t *testing.T) {
	f := func(raw [20]byte) bool {
		a := Address(raw)
		text, err := a.MarshalText()
		if err != nil {
			return false
		}
		var back Address
		if err := back.UnmarshalText(text); err != nil {
			return false
		}
		return back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickChecksumSelfConsistent(t *testing.T) {
	f := func(raw [20]byte) bool {
		return VerifyChecksum(Address(raw).Hex())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Parsing and formatting sit on every crawl page: well-formed input
// parses without allocating, Hex and MarshalText allocate at most once,
// and the in-place decoder accepts mixed-case digits and rejects bad
// digits and lengths.
func TestHexParseAndFormatAllocations(t *testing.T) {
	const addr = "0x52908400098527886E0F7030069857D2E4169EE7"
	const hash = "0xC5D2460186F7233C927E7DB2DCC703C0E500B653CA82273B7BFAD8045D85A470"
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseAddress(addr) }); n != 0 {
		t.Errorf("ParseAddress allocates %v times, want 0", n)
	}
	h, err := ParseHash(hash)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Hex(); got != strings.ToLower(hash) {
		t.Errorf("Hex = %s, want %s", got, strings.ToLower(hash))
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Hex() }); n > 1 {
		t.Errorf("Hash.Hex allocates %v times, want at most 1", n)
	}
	a := BytesToAddress(h[:])
	if n := testing.AllocsPerRun(100, func() { _, _ = a.MarshalText() }); n > 1 {
		t.Errorf("Address.MarshalText allocates %v times, want at most 1", n)
	}
	for _, bad := range []string{hash[:65] + "g", hash[:64], hash + "00", "0x"} {
		if _, err := ParseHash(bad); err == nil {
			t.Errorf("ParseHash(%q) succeeded, want error", bad)
		}
	}
}
