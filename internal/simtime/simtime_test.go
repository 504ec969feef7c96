package simtime

import (
	"testing"
	"time"
)

func TestMinuteRoundTrip(t *testing.T) {
	for _, tm := range []time.Time{Epoch, StudyStart, EnvStart, HETStart, StudyEnd} {
		m := MinuteOf(tm)
		if got := m.Time(); !got.Equal(tm) {
			t.Errorf("minute round trip %v -> %v", tm, got)
		}
	}
	// Sub-minute times floor.
	tm := Epoch.Add(90 * time.Second)
	if MinuteOf(tm) != 1 {
		t.Errorf("MinuteOf(+90s) = %d", MinuteOf(tm))
	}
}

func TestDayRoundTrip(t *testing.T) {
	for _, tm := range []time.Time{Epoch, StudyStart, ReplacementStart, ReplacementEnd} {
		d := DayOf(tm)
		if got := d.Time(); !got.Equal(tm) {
			t.Errorf("day round trip %v -> %v", tm, got)
		}
	}
	if DayOf(StudyStart) != 19 {
		t.Errorf("Jan 20 should be day 19, got %d", DayOf(StudyStart))
	}
}

func TestMinuteDayConsistency(t *testing.T) {
	m, day := MinuteOf(StudyStart), DayOf(StudyStart)
	if m < day.Start() || m >= (day+1).Start() {
		t.Errorf("minute %d is outside its day %d [%d, %d)", m, day, day.Start(), (day + 1).Start())
	}
	d := DayOf(EnvStart)
	if d.Start().Time() != EnvStart {
		t.Errorf("Day.Start mismatch: %v", d.Start().Time())
	}
}

func TestIntervalOrdering(t *testing.T) {
	ordered := []time.Time{StudyStart, ReplacementStart, EnvStart, HETStart, StudyEnd, ReplacementEnd, EnvEnd}
	for i := 1; i < len(ordered); i++ {
		if !ordered[i-1].Before(ordered[i]) {
			t.Errorf("interval boundaries out of order at %d: %v !< %v", i, ordered[i-1], ordered[i])
		}
	}
}

func TestMonthKey(t *testing.T) {
	k := MonthKey(time.Date(2019, 5, 20, 13, 0, 0, 0, time.UTC))
	if MonthLabel(k) != "2019-05" {
		t.Errorf("MonthLabel = %q", MonthLabel(k))
	}
	if MonthKey(MonthKeyTime(k)) != k {
		t.Error("month key round trip failed")
	}
	// Consecutive months differ by 1, across year boundary too.
	dec := MonthKey(time.Date(2019, 12, 31, 0, 0, 0, 0, time.UTC))
	jan := MonthKey(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	if jan-dec != 1 {
		t.Errorf("year boundary: dec=%d jan=%d", dec, jan)
	}
}

func TestStudyDurations(t *testing.T) {
	// The failure window is 237 days; the env window is 122 days.
	if got := StudyEnd.Sub(StudyStart).Hours() / 24; got != 237 {
		t.Errorf("study window = %v days", got)
	}
	if got := EnvEnd.Sub(EnvStart).Hours() / 24; got != 122 {
		t.Errorf("env window = %v days", got)
	}
}
