(* Canonical mini-C mutatee sources used by tests, examples and the
   benchmark harness. *)

(* The paper's benchmark application (§4.1): an N x N double-precision
   matrix multiply called repeatedly from main, timed with clock_gettime
   around the call loop.  The paper uses N = 100; the harness passes a
   smaller N with the same code shape so simulation stays fast.  The
   multiply function compiles to the same kind of triple loop (the paper
   counts 11 basic blocks in its gcc build). *)
let matmul ~n ~reps =
  Printf.sprintf
    {|
// N x N double matrix multiply, called %d times (paper section 4.1)
int N = %d;
double A[%d];
double B[%d];
double C[%d];

void init() {
  int i;
  for (i = 0; i < N * N; i = i + 1) {
    A[i] = 1.0 + i;
    B[i] = 2.0;
    C[i] = 0.0;
  }
}

void multiply() {
  int i;
  int j;
  int k;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      double s = 0.0;
      for (k = 0; k < N; k = k + 1) {
        s = s + A[i * N + k] * B[k * N + j];
      }
      C[i * N + j] = s;
    }
  }
}

int main() {
  int r;
  long t0;
  long t1;
  init();
  t0 = clock_ns();
  for (r = 0; r < %d; r = r + 1) {
    multiply();
  }
  t1 = clock_ns();
  print_int(t1 - t0);
  return 0;
}
|}
    reps n (n * n) (n * n) (n * n) reps

(* switch with dense cases: compiles to a jump table *)
let switch_demo =
  {|
int results[8];

int classify(int x) {
  switch (x) {
    case 0: return 100;
    case 1: return 101;
    case 2: return 102;
    case 3: return 103;
    case 4: return 104;
    case 5: return 105;
    default: return -1;
  }
}

int main() {
  int i;
  int sum;
  sum = 0;
  for (i = 0; i < 8; i = i + 1) {
    results[i] = classify(i);
    sum = sum + results[i];
  }
  // 100+...+105 + 2*(-1) = 613
  print_int(sum);
  return sum % 256;
}
|}

(* recursion + branching *)
let fib =
  {|
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}

int main() {
  print_int(fib(15));
  return fib(10);  // 55
}
|}

(* mixed int/double arithmetic and while loops *)
let mixed =
  {|
double acc = 0.0;

double scale(double x, int k) {
  double r;
  r = x;
  while (k > 0) {
    r = r * 2.0;
    k = k - 1;
  }
  return r;
}

int main() {
  int i;
  for (i = 1; i <= 4; i = i + 1) {
    acc = acc + scale(1.5, i);
  }
  // 3 + 6 + 12 + 24 = 45
  print_int(acc);
  return 45 - acc;
}
|}

(* function pointers are out of language scope, but tail-ish chains and
   many small functions exercise call classification *)
let calls =
  {|
int add1(int x) { return x + 1; }
int add2(int x) { return add1(add1(x)); }
int add4(int x) { return add2(add2(x)); }

int main() {
  print_int(add4(38));
  return add4(38) % 256;  // 42
}
|}

(* The built-in mutatee table the CLIs and checkers accept by name;
   matmul at a size that keeps simulation and symbolic checking fast. *)
let builtins =
  [
    ("fib", lazy fib);
    ("calls", lazy calls);
    ("switch", lazy switch_demo);
    ("mixed", lazy mixed);
    ("matmul", lazy (matmul ~n:8 ~reps:1));
  ]
