//! Host-side folds of a binary source operator.

use oclsim::Value;
use skelcl_kernel::interp::ArgBinding;
use skelcl_kernel::{KernelHandle, Program};

use crate::error::{Result, SkelError};
use crate::kernelgen::{self, UdfInfo};
use crate::skeletons::DeviceScalar;

/// A binary source operator built once for the host: its generated reduce
/// kernel, run over gathered values by the kernel-language engine. Step 3 of
/// the multi-GPU reduce and the offset combination of the multi-GPU scan
/// (paper, Section III-C) fold through it, eager and fused alike, so the
/// host combines values with exactly the code the devices run.
#[derive(Debug)]
pub(crate) struct HostFold {
    program: Program,
    kernel: KernelHandle,
}

impl HostFold {
    /// Build the host program of `udf`, a binary operator.
    pub(crate) fn new(udf: &UdfInfo) -> Result<HostFold> {
        let program = Program::build(&kernelgen::reduce_kernel(udf)?)?;
        let kernel = program.kernel(kernelgen::REDUCE_KERNEL)?;
        Ok(HostFold { program, kernel })
    }

    /// `values[0] ⊕ values[1] ⊕ … ⊕ values[n - 1]`, folded left to right.
    pub(crate) fn fold<T: DeviceScalar>(&self, values: &[T]) -> Result<T> {
        if values.is_empty() {
            return Err(SkelError::EmptyInput);
        }
        let n = Value::Int(values.len() as i32);
        // The kernel's buffers are typed with the operator's element type;
        // every conversion below is exact for the type it binds.
        macro_rules! fold_as {
            ($ty:ty, $bind:ident) => {{
                let mut input: Vec<$ty> = values
                    .iter()
                    .map(|v| <$ty as DeviceScalar>::from_value(v.to_value()))
                    .collect();
                let mut output = [<$ty as DeviceScalar>::from_value(Value::Int(0))];
                let mut args = [
                    ArgBinding::$bind(&mut input),
                    ArgBinding::$bind(&mut output),
                    ArgBinding::Scalar(n),
                ];
                self.program.run_ndrange(&self.kernel, 1, &mut args)?;
                T::from_value(output[0].to_value())
            }};
        }
        Ok(match T::type_name() {
            "float" => fold_as!(f32, buffer_f32),
            "double" => fold_as!(f64, buffer_f64),
            "int" => fold_as!(i32, buffer_i32),
            "uint" => fold_as!(u32, buffer_u32),
            other => {
                return Err(SkelError::Internal(format!(
                    "no host fold for element type `{other}`"
                )))
            }
        })
    }
}
