(* The evaluation benchmarks as Fortran+OpenMP source, following the
   paper's Listings 5 and 6: SAXPY offloaded with
   `target parallel do simd simdlen(10)`, and the SGESL back-substitution
   update loop offloaded per outer iteration with `target parallel do`
   (implicit device mappings, as in the paper's discussion of Listing 1).

   Sizes are spliced in as named constants, matching how the paper's
   experiments fix each problem size per bitstream build. *)

let saxpy ~n =
  Fmt.str
    {|program saxpy_bench
  implicit none
  integer, parameter :: n = %d
  real :: x(n), y(n)
  real :: a
  integer :: i

  a = 2.0
  do i = 1, n
    x(i) = real(i) * 0.5
    y(i) = real(n - i) * 0.25
  end do

  !$omp target parallel do simd simdlen(10) map(to:x) map(tofrom:y)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
  !$omp end target parallel do simd

  print *, 'saxpy', y(1), y(n)
end program saxpy_bench
|}
    n

let sgesl ~n =
  Fmt.str
    {|program sgesl_bench
  implicit none
  integer, parameter :: n = %d
  real :: a(n), b(n)
  integer :: ipvt(n)
  real :: t
  integer :: i, j, k, l

  do i = 1, n
    a(i) = 0.001 * real(mod(i, 7) + 1)
    b(i) = real(mod(i, 13)) * 0.5
    ipvt(i) = i
  end do

  do k = 1, n - 1
    l = ipvt(k)
    t = b(l)
    if (l /= k) then
      b(l) = b(k)
      b(k) = t
    end if
    !$omp target parallel do
    do j = k + 1, n
      b(j) = b(j) + t * a(j)
    end do
    !$omp end target parallel do
  end do

  print *, 'sgesl', b(1), b(n)
end program sgesl_bench
|}
    n

(* A reduction benchmark exercising the round-robin n-copy rewrite. *)
let dot_product ~n ~simdlen =
  Fmt.str
    {|program dot_bench
  implicit none
  integer, parameter :: n = %d
  real :: x(n), y(n)
  real :: total
  integer :: i

  do i = 1, n
    x(i) = real(mod(i, 9)) * 0.125
    y(i) = real(mod(i, 5)) * 0.25
  end do

  total = 0.0
  !$omp target parallel do simd simdlen(%d) reduction(+:total)
  do i = 1, n
    total = total + x(i) * y(i)
  end do
  !$omp end target parallel do simd

  print *, 'dot', total
end program dot_bench
|}
    n simdlen

(* Nested data regions, the paper's Listing 1 shape. *)
let data_regions ~n =
  Fmt.str
    {|program data_regions
  implicit none
  integer, parameter :: n = %d
  real :: a(n), b(n)
  integer :: i

  do i = 1, n
    a(i) = 0.0
    b(i) = real(i)
  end do

  !$omp target data map(from:a)
  !$omp target map(to:b)
  do i = 1, n
    a(i) = b(i) * 2.0
  end do
  !$omp end target
  !$omp end target data

  print *, 'regions', a(1), a(n)
end program data_regions
|}
    n

(* A many-kernel compile-time workload: [kernels] distinct offload
   regions over the same arrays, each with its own coefficient (and every
   other one a simd region), so kernel outlining produces [kernels]
   independent device functions. The regions chain through b, so the printed
   result checks all of them executed in order. *)
let many_kernels ~kernels ~n =
  let buf = Buffer.create (1024 + (kernels * 256)) in
  Buffer.add_string buf
    (Fmt.str
       {|program many_kernels
  implicit none
  integer, parameter :: n = %d
  real :: a(n), b(n)
  integer :: i

  do i = 1, n
    a(i) = real(mod(i, 11)) * 0.5
    b(i) = real(mod(i, 7)) * 0.25
  end do

|}
       n);
  for k = 1 to kernels do
    let coeff = 0.0625 *. float_of_int (((k - 1) mod 8) + 1) in
    if k mod 2 = 0 then
      Buffer.add_string buf
        (Fmt.str
           {|  !$omp target parallel do simd simdlen(10) map(to:a) map(tofrom:b)
  do i = 1, n
    b(i) = b(i) + %.4f * a(i)
  end do
  !$omp end target parallel do simd

|}
           coeff)
    else
      Buffer.add_string buf
        (Fmt.str
           {|  !$omp target parallel do
  do i = 1, n
    b(i) = b(i) + %.4f * a(i)
  end do
  !$omp end target parallel do

|}
           coeff)
  done;
  Buffer.add_string buf
    "  print *, 'many', b(1), b(n)\nend program many_kernels\n";
  Buffer.contents buf

(* 1-D heat-diffusion stencil: two offloaded sweeps per timestep inside
   one target data region — the multi-kernel, data-resident pattern the
   rewrite/fault/backend benches all share. *)
let stencil ~n ~steps =
  Fmt.str
    "program heat\n\
     implicit none\n\
     integer, parameter :: n = %d\n\
     integer, parameter :: steps = %d\n\
     real :: u(n), v(n)\n\
     integer :: i, t\n\
     do i = 1, n\n\
     u(i) = 0.0\n\
     v(i) = 0.0\n\
     end do\n\
     u(1) = 100.0\n\
     u(n) = 100.0\n\
     !$omp target data map(tofrom:u) map(alloc:v)\n\
     do t = 1, steps\n\
     !$omp target parallel do\n\
     do i = 2, n - 1\n\
     v(i) = u(i) + 0.25 * (u(i - 1) - 2.0 * u(i) + u(i + 1))\n\
     end do\n\
     !$omp end target parallel do\n\
     !$omp target parallel do\n\
     do i = 2, n - 1\n\
     u(i) = v(i)\n\
     end do\n\
     !$omp end target parallel do\n\
     end do\n\
     !$omp end target data\n\
     print *, 'u(2) =', u(2), ' u(n/2) =', u(n / 2)\n\
     end program heat\n"
    n steps
