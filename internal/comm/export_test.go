package comm

// Test-only views of the agreement's wire format, so the external tests can
// script a peer's round messages and fuzz the decoder.
var (
	EncodeAgree = encodeAgree
	DecodeAgree = decodeAgree
	AgreeTag    = agreeTag
)
