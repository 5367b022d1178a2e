//go:build goexperiment.synctest

package streamrt_test

import (
	"testing"
	"testing/synctest"

	"ds2/internal/streamrt"
)

// TestDS2ConvergesWithinThreeIntervalsVirtual is the local case of
// TestDS2ConvergesWithinThreeIntervals in a synctest bubble (see
// virtual_test.go): sleep-paced costs are exact there, so one attempt
// decides it. The pipeline and the manager are built outside the bubble,
// where their helpers may fail the test; inside it only the job runs.
func TestDS2ConvergesWithinThreeIntervalsVirtual(t *testing.T) {
	p := liveWordcountish(t, convRate)
	scaler := liveManager(t, p.Graph(), convInitial)
	var err error
	synctest.Run(func() {
		err = convergeOnce(func() (*streamrt.Job, error) { return deployLocal(p) }, scaler, true)
	})
	if err != nil {
		t.Fatal(err)
	}
}
