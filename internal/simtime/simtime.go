// Package simtime defines the simulated study calendar and the minute/day
// indexing shared by the fault, environment, logging and inventory models.
//
// All timestamps are UTC. Minute and day indices count from Epoch
// (2019-01-01T00:00Z) so that records from different subsystems join on a
// common clock.
package simtime

import "time"

// Epoch is the origin of minute and day indices.
var Epoch = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

// Study intervals from the paper (§2.3, §3.1, §3.3, §3.5).
var (
	// StudyStart begins the failure-analysis interval (Jan 20, 2019).
	StudyStart = time.Date(2019, 1, 20, 0, 0, 0, 0, time.UTC)
	// StudyEnd ends the failure-analysis interval (Sep 14, 2019), when the
	// system moved to a closed network.
	StudyEnd = time.Date(2019, 9, 14, 0, 0, 0, 0, time.UTC)
	// ReplacementStart begins the hardware-replacement tracking window
	// (Feb 17, 2019).
	ReplacementStart = time.Date(2019, 2, 17, 0, 0, 0, 0, time.UTC)
	// ReplacementEnd ends the hardware-replacement tracking window
	// (Sep 17, 2019).
	ReplacementEnd = time.Date(2019, 9, 17, 0, 0, 0, 0, time.UTC)
	// EnvStart begins the environmental-data interval (May 20, 2019).
	EnvStart = time.Date(2019, 5, 20, 0, 0, 0, 0, time.UTC)
	// EnvEnd ends the environmental-data interval (Sep 19, 2019).
	EnvEnd = time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	// HETStart is when Hardware Event Tracker records begin appearing in
	// the syslog, following the August 2019 firmware update.
	HETStart = time.Date(2019, 8, 23, 0, 0, 0, 0, time.UTC)
)

// Minute is a minute index relative to Epoch.
type Minute int64

// Day is a day index relative to Epoch.
type Day int64

// MinuteOf converts a time to its minute index (flooring).
func MinuteOf(t time.Time) Minute {
	return Minute(t.Sub(Epoch) / time.Minute)
}

// Time converts a minute index back to a time.
func (m Minute) Time() time.Time {
	return Epoch.Add(time.Duration(m) * time.Minute)
}

// DayOf converts a time to its day index (flooring).
func DayOf(t time.Time) Day {
	return Day(t.Sub(Epoch) / (24 * time.Hour))
}

// Time converts a day index back to the midnight starting that day.
func (d Day) Time() time.Time {
	return Epoch.AddDate(0, 0, int(d))
}

// Start returns the first minute of the day.
func (d Day) Start() Minute { return Minute(d) * MinutesPerDay }

// Common durations in minutes, used for the temperature-window analysis
// (Fig 9: one hour, one day, one week, one month).
const (
	MinutesPerHour  = 60
	MinutesPerDay   = 24 * MinutesPerHour
	MinutesPerWeek  = 7 * MinutesPerDay
	MinutesPerMonth = 30 * MinutesPerDay
)

// HoursPerYear is used for FIT-rate conversion (FIT = failures per 1e9
// device-hours); 8766 matches the paper's Julian-year convention.
const HoursPerYear = 8766.0

// MonthKey returns a yyyy*12+mm key identifying the calendar month of a
// time, for monthly aggregation (Figs 4a, 13, 14).
func MonthKey(t time.Time) int {
	return t.Year()*12 + int(t.Month()) - 1
}

// MonthKeyTime returns the first instant of the month identified by key.
func MonthKeyTime(key int) time.Time {
	return time.Date(key/12, time.Month(key%12+1), 1, 0, 0, 0, 0, time.UTC)
}

// MonthLabel renders a month key as "2019-05".
func MonthLabel(key int) string {
	return MonthKeyTime(key).Format("2006-01")
}
