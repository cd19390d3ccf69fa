package main

import (
	"bytes"
	"fmt"
	"time"

	"pxml/internal/codec"
	"pxml/internal/store"
)

// checkDurable closes the server, opens its store directory again and
// requires every name's last acknowledged PUT to read back byte-identical
// in the binary codec. It returns how long the reopen took. The operating
// system's cache is not discarded, so this checks the commit protocol,
// not the device.
func (hn *harness) checkDurable() (time.Duration, error) {
	if err := hn.srv.Close(); err != nil {
		return 0, fmt.Errorf("durability: closing the server: %w", err)
	}
	start := time.Now()
	st, _, err := store.Open(hn.dir, hn.w.cfg.StoreOptions)
	if err != nil {
		return 0, fmt.Errorf("durability: reopening %s: %w", hn.dir, err)
	}
	reopen := time.Since(start)
	defer st.Close()
	for name, i := range hn.lastPut {
		got, ok := st.Get(name)
		if !ok {
			return 0, fmt.Errorf("durability: %s was acknowledged and is gone after reopen", name)
		}
		if !bytes.Equal(codec.AppendBinary(nil, got), codec.AppendBinary(nil, hn.w.requests[i].pi)) {
			return 0, fmt.Errorf("durability: %s reads back different from its last acknowledged PUT", name)
		}
	}
	return reopen, nil
}
