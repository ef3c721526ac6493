//! The builtin C library functions provided by the execution environment
//! (the "small parts of the standard libraries" the paper's Cerberus
//! supports, including `printf`).

use cerberus_memory::limits::ResourceKind;
use cerberus_memory::model::MemoryModel;
use cerberus_memory::value::PointerValue;

use crate::eval::{Interp, Stop, OUTPUT_BYTES};
use crate::value::Value;

/// Call a builtin library function by name, if `name` is one. Returns `None`
/// when the name is not a builtin so the caller can dispatch to a defined C
/// function instead.
pub fn call_builtin<M: MemoryModel>(
    interp: &mut Interp<'_, M>,
    name: &str,
    args: &[Value],
) -> Option<Result<Value, Stop>> {
    match name {
        "printf" => Some(printf(interp, args)),
        "malloc" => Some(malloc(interp, args)),
        "calloc" => Some(calloc(interp, args)),
        "free" => Some(free(interp, args)),
        "memcpy" => Some(memcpy(interp, args)),
        "memcmp" => Some(memcmp(interp, args)),
        "memset" => Some(memset(interp, args)),
        "strlen" => Some(strlen(interp, args)),
        "strcmp" => Some(strcmp(interp, args)),
        "strcpy" => Some(strcpy(interp, args)),
        "abort" => Some(Err(Stop::Error("abort() called".into()))),
        "exit" => Some(Err(Stop::Exit(
            args.first().and_then(Value::as_int).unwrap_or(0),
        ))),
        "assert" => Some(assert_builtin(args)),
        _ => None,
    }
}

fn arg_int(args: &[Value], i: usize) -> i128 {
    args.get(i).and_then(Value::as_int).unwrap_or(0)
}

fn arg_ptr(args: &[Value], i: usize) -> Result<PointerValue, Stop> {
    args.get(i).and_then(Value::as_pointer).ok_or_else(|| {
        Stop::Error(format!(
            "library call expected a pointer argument at position {i}"
        ))
    })
}

fn specified_int(v: i128) -> Result<Value, Stop> {
    Ok(Value::specified_int(v))
}

fn specified_ptr(p: PointerValue) -> Result<Value, Stop> {
    Ok(Value::Specified(Box::new(Value::Pointer(p))))
}

fn assert_builtin(args: &[Value]) -> Result<Value, Stop> {
    if arg_int(args, 0) == 0 {
        Err(Stop::Error("assertion failed".into()))
    } else {
        Ok(Value::Specified(Box::new(Value::Unit)))
    }
}

fn malloc<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let size = arg_int(args, 0).max(0) as u64;
    specified_ptr(interp.alloc(size)?)
}

fn calloc<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let n = arg_int(args, 0).max(0) as u64;
    let size = arg_int(args, 1).max(0) as u64;
    let total = n.saturating_mul(size);
    let ptr = interp.alloc(total)?;
    interp.mem.set_bytes(&ptr, 0, total).map_err(Stop::from)?;
    specified_ptr(ptr)
}

fn free<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let ptr = args
        .first()
        .and_then(Value::as_pointer)
        .unwrap_or_else(PointerValue::null);
    interp.kill(&ptr, true)?;
    Ok(Value::Specified(Box::new(Value::Unit)))
}

fn memcpy<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let dst = arg_ptr(args, 0)?;
    let src = arg_ptr(args, 1)?;
    let n = arg_int(args, 2).max(0) as u64;
    interp.mem.copy_bytes(&dst, &src, n).map_err(Stop::from)?;
    specified_ptr(dst)
}

fn memcmp<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let a = arg_ptr(args, 0)?;
    let b = arg_ptr(args, 1)?;
    let n = arg_int(args, 2).max(0) as u64;
    let r = interp.mem.compare_bytes(&a, &b, n).map_err(Stop::from)?;
    specified_int(i128::from(r))
}

fn memset<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let dst = arg_ptr(args, 0)?;
    let byte = (arg_int(args, 1) & 0xff) as u8;
    let n = arg_int(args, 2).max(0) as u64;
    interp.mem.set_bytes(&dst, byte, n).map_err(Stop::from)?;
    specified_ptr(dst)
}

fn strlen<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let p = arg_ptr(args, 0)?;
    let s = interp.mem.read_c_string(&p).map_err(Stop::from)?;
    specified_int(s.len() as i128)
}

fn strcmp<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let a = interp
        .mem
        .read_c_string(&arg_ptr(args, 0)?)
        .map_err(Stop::from)?;
    let b = interp
        .mem
        .read_c_string(&arg_ptr(args, 1)?)
        .map_err(Stop::from)?;
    specified_int(match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    })
}

fn strcpy<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let dst = arg_ptr(args, 0)?;
    let src = arg_ptr(args, 1)?;
    let bytes = interp.mem.read_c_string(&src).map_err(Stop::from)?;
    let n = bytes.len() as u64 + 1;
    interp.mem.copy_bytes(&dst, &src, n).map_err(Stop::from)?;
    specified_ptr(dst)
}

/// A subset of `printf` conversions sufficient for the test suite: `%d`,
/// `%i`, `%u`, `%ld`, `%lu`, `%lld`, `%llu`, `%zu`, `%x`, `%c`, `%s`, `%p`
/// and `%%`. A call that would take the execution's output past
/// [`OUTPUT_BYTES`] writes nothing and exhausts the output budget; it stops
/// formatting at the first conversion that crosses it.
fn printf<M: MemoryModel>(interp: &mut Interp<'_, M>, args: &[Value]) -> Result<Value, Stop> {
    let fmt_ptr = arg_ptr(args, 0)?;
    let fmt = interp.mem.read_c_string(&fmt_ptr).map_err(Stop::from)?;
    let budget = OUTPUT_BYTES.saturating_sub(interp.stdout.len());
    let mut out: Vec<u8> = Vec::with_capacity(fmt.len());
    let mut arg_index = 1;
    let mut next_arg = |interp_args: &[Value]| -> Value {
        let v = interp_args.get(arg_index).cloned().unwrap_or(Value::Unit);
        arg_index += 1;
        v
    };
    let mut i = 0;
    while i < fmt.len() && out.len() <= budget {
        let c = fmt[i];
        if c != b'%' {
            out.push(c);
            i += 1;
            continue;
        }
        // Parse (and ignore) length modifiers.
        let mut j = i + 1;
        while j < fmt.len() && matches!(fmt[j], b'l' | b'z' | b'h') {
            j += 1;
        }
        let conv = if j < fmt.len() { fmt[j] } else { b'%' };
        match conv {
            b'%' => out.push(b'%'),
            b'd' | b'i' => {
                let v = next_arg(args);
                out.extend_from_slice(value_as_signed_string(&v).as_bytes());
            }
            b'u' => {
                let v = next_arg(args);
                let n = v.as_int().unwrap_or(0);
                out.extend_from_slice(format!("{}", n as u64).as_bytes());
            }
            b'x' => {
                let v = next_arg(args);
                let n = v.as_int().unwrap_or(0);
                out.extend_from_slice(format!("{:x}", n as u64).as_bytes());
            }
            b'c' => {
                let v = next_arg(args);
                out.push((v.as_int().unwrap_or(0) & 0xff) as u8);
            }
            b's' => {
                let v = next_arg(args);
                match v.as_pointer() {
                    Some(p) => {
                        let s = interp.mem.read_c_string(&p).map_err(Stop::from)?;
                        out.extend_from_slice(&s);
                    }
                    None => out.extend_from_slice(b"(null)"),
                }
            }
            b'p' => {
                let v = next_arg(args);
                match v.as_pointer() {
                    Some(p) => out.extend_from_slice(format!("0x{:x}", p.addr).as_bytes()),
                    None => {
                        out.extend_from_slice(format!("0x{:x}", v.as_int().unwrap_or(0)).as_bytes())
                    }
                }
            }
            other => {
                out.push(b'%');
                out.push(other);
            }
        }
        i = j + 1;
    }
    if out.len() > budget {
        return Err(Stop::Resource(ResourceKind::Output));
    }
    let written = out.len() as i128;
    interp.stdout.extend_from_slice(&out);
    specified_int(written)
}

fn value_as_signed_string(v: &Value) -> String {
    match v.as_int() {
        Some(n) => n.to_string(),
        None => "?".to_owned(),
    }
}
