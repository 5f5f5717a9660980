"""Time units for the simulator.

The simulator's base time unit is the nanosecond, stored as a float.
A full 64 ms refresh window is 6.4e7 ns, far below the 2^53 threshold
where float64 loses integer precision, so accumulation is exact for the
granularities we use (hundredths of a nanosecond).
"""

NS = 1.0
US = 1_000.0 * NS
MS = 1_000.0 * US
SEC = 1_000.0 * MS
