// Package xmath provides the numerical substrate used throughout selest:
// Simpson and tabulated quadrature, numerical differentiation, grid
// minimisation, and small floating-point helpers.
//
// The estimators in this repository need to integrate density functionals
// such as ∫ f'(x)² dx, differentiate estimated densities to locate change
// points, and minimise one-dimensional error curves (e.g. AMISE as a
// function of the smoothing parameter). All of those primitives live here
// so the statistical packages stay free of ad-hoc numerics.
//
// Everything operates on float64 and plain func(float64) float64 values;
// there are no dependencies outside the standard library.
package xmath
