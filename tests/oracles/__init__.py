"""Reference implementations the property suites bind the program to."""
