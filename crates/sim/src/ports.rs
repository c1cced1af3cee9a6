//! Simulated I/O port devices (sensors, radio, actuators).

use std::collections::HashMap;

/// The machine's window to the outside world, backing the PG32 `in`/`out`
/// instructions.
pub trait PortDevice {
    /// Produce the next value available on `port`.
    fn input(&mut self, port: u8) -> i32;
    /// Accept a value written to `port`.
    fn output(&mut self, port: u8, value: i32);
}

/// A device that returns 0 on every input and discards outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullDevice;

impl NullDevice {
    /// Create a null device.
    pub fn new() -> Self {
        NullDevice
    }
}

impl PortDevice for NullDevice {
    fn input(&mut self, _port: u8) -> i32 {
        0
    }
    fn output(&mut self, _port: u8, _value: i32) {}
}

/// A device with per-port input queues that records all outputs, mirroring
/// `teamplay_minic`'s `RecordingPorts` so differential tests can drive
/// interpreter and machine identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingDevice {
    inputs: HashMap<u8, Vec<i32>>,
    cursor: HashMap<u8, usize>,
    /// Every `(port, value)` written, in order.
    pub outputs: Vec<(u8, i32)>,
}

impl RecordingDevice {
    /// Empty device; inputs past the queued values read as 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue input values on a port.
    pub fn queue(&mut self, port: u8, values: impl IntoIterator<Item = i32>) {
        self.inputs.entry(port).or_default().extend(values);
    }
}

impl PortDevice for RecordingDevice {
    fn input(&mut self, port: u8) -> i32 {
        let idx = self.cursor.entry(port).or_insert(0);
        let v = self
            .inputs
            .get(&port)
            .and_then(|q| q.get(*idx))
            .copied()
            .unwrap_or(0);
        *idx += 1;
        v
    }

    fn output(&mut self, port: u8, value: i32) {
        self.outputs.push((port, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_device_reads_zero() {
        let mut d = NullDevice::new();
        assert_eq!(d.input(7), 0);
        d.output(7, 5); // no-op, must not panic
    }

    #[test]
    fn recording_device_queues_and_records() {
        let mut d = RecordingDevice::new();
        d.queue(1, [10, 20]);
        assert_eq!(d.input(1), 10);
        assert_eq!(d.input(1), 20);
        assert_eq!(d.input(1), 0);
        assert_eq!(d.input(2), 0);
        d.output(3, 7);
        d.output(3, 8);
        assert_eq!(d.outputs, vec![(3, 7), (3, 8)]);
    }
}
