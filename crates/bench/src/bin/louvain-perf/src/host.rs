//! Host fingerprint recorded with every result, and the process's peak
//! resident set size. Both read Linux `/proc` and `/sys` files; fields a
//! host does not expose are reported as unknown.

use louvain_core::json::Json;

#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub llc_mb: Option<f64>,
}

impl Host {
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let llc_mb = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
            .ok()
            .and_then(|s| parse_size_mb(s.trim()));
        Host {
            cores,
            cpu_model,
            llc_mb,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "available_parallelism".to_string(),
                Json::UInt(self.cores as u64),
            ),
            ("cpu_model".to_string(), Json::Str(self.cpu_model.clone())),
            (
                "llc_mb".to_string(),
                self.llc_mb
                    .map_or_else(|| Json::Str("unknown".to_string()), Json::Num),
            ),
        ])
    }
}

/// Parses sysfs cache sizes such as `32768K` or `8M` into MiB.
fn parse_size_mb(s: &str) -> Option<f64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1.0 / 1024.0),
        b'M' => (&s[..s.len() - 1], 1.0),
        b'G' => (&s[..s.len() - 1], 1024.0),
        _ => (s, 1.0 / (1024.0 * 1024.0)),
    };
    digits.parse::<f64>().ok().map(|v| v * scale)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size_mb("32768K"), Some(32.0));
        assert_eq!(parse_size_mb("8M"), Some(8.0));
        assert_eq!(parse_size_mb("junk"), None);
    }
}
