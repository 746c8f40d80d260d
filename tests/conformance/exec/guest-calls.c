// Guest-to-guest calls through the RUN-line engine pair: a global
// written in a callee, direct and mutual recursion, a void callee and
// a callee with its own stack array must print the same on both
// engines at -O0 and -O1.
// RUN: miniclang --run -fexec=interp %s | FileCheck %s
// RUN: miniclang --run -fexec=closures %s | FileCheck %s
// RUN: miniclang --run -fexec=interp -O %s | FileCheck %s
// RUN: miniclang --run -fexec=closures -O %s | FileCheck %s
int printf(const char *fmt, ...);
int g = 0;
void bump(int v) { g = g + v; }
int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }
int is_odd(int n);
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
int window(int s) {
  int tmp[4];
  for (int i = 0; i < 4; i += 1)
    tmp[i] = s + i;
  return tmp[0] * tmp[3];
}
int main() {
  int x = 5;
  bump(1);
  printf("global %d %d\n", x, g);
  printf("gcd %d\n", gcd(84, 36));
  printf("parity %d %d\n", is_even(10), is_odd(10));
  printf("window %d\n", window(2));
  return 0;
}
// CHECK: global 5 1
// CHECK: gcd 12
// CHECK: parity 1 0
// CHECK: window 10
